#include "sched/acyclic.hh"

#include <algorithm>
#include <vector>

#include "sched/groups.hh"
#include "sched/ii_search.hh"
#include "sched/mrt.hh"
#include "sched/sched_util.hh"
#include "support/diag.hh"

namespace swp
{

Schedule
scheduleAcyclic(const Ddg &g, const Machine &m)
{
    const int n = g.numNodes();
    SWP_ASSERT(n > 0, "cannot schedule an empty loop");

    // The horizon is every node serialized, with slack. An MRT whose II
    // is the horizon is a linear reservation table as long as no
    // reservation wraps past its last row, which is checked after each
    // placement.
    const int horizon = defaultMaxIi(g, m);

    // Complex groups are placed atomically, so the list scheduling
    // works on groups, in a topological order of the intra-iteration
    // (distance 0) arcs between groups. At any II such an arc bounds
    // its destination's anchor by time(src) + latency(src) - offset(dst).
    const GroupSet groups(g, m);
    ArcTable arcs;
    arcs.build(g, m, groups, horizon);
    const int ng = groups.numGroups();

    std::vector<int> indeg(std::size_t(ng), 0);
    std::vector<int> ready;
    for (int gi = 0; gi < ng; ++gi) {
        for (const ArcTable::Bound &b : arcs.inArcs(gi))
            indeg[std::size_t(gi)] += b.distance == 0;
        if (indeg[std::size_t(gi)] == 0)
            ready.push_back(gi);
    }

    Mrt mrt(m, horizon);
    Schedule flat(horizon, n);
    for (std::size_t cursor = 0; cursor < ready.size(); ++cursor) {
        const int gi = ready[cursor];
        const ComplexGroup &grp = groups.group(gi);

        long earliest = 0;
        for (const ArcTable::Bound &b : arcs.inArcs(gi)) {
            if (b.distance == 0)
                earliest = std::max(earliest, flat.time(b.node) + b.delta);
        }
        bool inside = earliest < horizon &&
                      mrt.placeGroupFirstFit(g, grp, int(earliest),
                                             horizon - 1, flat);
        for (std::size_t i = 0; inside && i < grp.members.size(); ++i) {
            const NodeId v = grp.members[i];
            inside = flat.time(v) + m.occupancy(g.node(v).op) <= horizon;
        }
        SWP_ASSERT(inside, "acyclic scheduler exceeded its horizon on ",
                   g.name());

        for (const ArcTable::Bound &b : arcs.outArcs(gi)) {
            const int to = groups.groupOf(b.node);
            if (b.distance == 0 && --indeg[std::size_t(to)] == 0)
                ready.push_back(to);
        }
    }
    SWP_ASSERT(int(ready.size()) == ng,
               "distance-0 cycle across groups in ", g.name());

    // II = makespan: results of iteration i are complete before
    // iteration i+1 issues anything, so every loop-carried dependence
    // and every resource constraint is satisfied with stage count 1.
    int makespan = 1;
    for (NodeId v = 0; v < n; ++v) {
        makespan = std::max(makespan,
                            flat.time(v) + std::max(m.latency(g.node(v).op),
                                                    m.occupancy(g.node(v).op)));
    }

    Schedule sched(makespan, n);
    for (NodeId v = 0; v < n; ++v)
        sched.set(v, flat.time(v), flat.unit(v));

    std::string why;
    SWP_ASSERT(validateSchedule(g, m, sched, &why),
               "acyclic scheduler produced an invalid schedule: ", why);
    return sched;
}

} // namespace swp
