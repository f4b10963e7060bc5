#include "sched/ims.hh"

#include <algorithm>

#include "sched/groups.hh"
#include "sched/mrt.hh"
#include "sched/sched_util.hh"
#include "support/diag.hh"

namespace swp
{

std::optional<Schedule>
ImsScheduler::scheduleAt(const Ddg &g, const Machine &m, int ii)
{
    if (g.numNodes() == 0)
        return std::nullopt;

    ws_.groups.reset(g, m);
    const GroupSet &groups = ws_.groups;
    ws_.arcs.build(g, m, groups, ii);
    if (!groupsInternallyFeasible(ws_.arcs, groups))
        return std::nullopt;

    ws_.prio.compute(ws_.arcs, g.numNodes());
    groupPriorities(ws_.prio, groups, ws_.gAsap, ws_.gHeight);
    const std::vector<long> &gAsap = ws_.gAsap;
    const std::vector<long> &gHeight = ws_.gHeight;
    const int ng = groups.numGroups();

    Schedule sched(ii, g.numNodes());
    Mrt &mrt = ws_.mrt;
    mrt.reset(m, ii);

    std::vector<char> &placed = ws_.placed;
    std::vector<long> &lastTime = ws_.lastTime;
    placed.assign(std::size_t(ng), 0);
    lastTime.assign(std::size_t(ng), schedNegInf);
    int unplacedCount = ng;
    constexpr long placementsPerGroup = 6;
    long budget = placementsPerGroup * std::max(ng, 8);

    auto pickNext = [&]() {
        int best = -1;
        for (int gi = 0; gi < ng; ++gi) {
            if (placed[std::size_t(gi)])
                continue;
            if (best < 0 ||
                gHeight[std::size_t(gi)] > gHeight[std::size_t(best)] ||
                (gHeight[std::size_t(gi)] == gHeight[std::size_t(best)] &&
                 gi < best)) {
                best = gi;
            }
        }
        return best;
    };

    auto unplaceGroup = [&](int gi) {
        mrt.removeGroup(g, groups.group(gi), sched);
        for (NodeId v : groups.group(gi).members)
            sched.clear(v);
        placed[std::size_t(gi)] = 0;
        ++unplacedCount;
    };

    while (unplacedCount > 0) {
        if (budget-- <= 0)
            return std::nullopt;

        const int gi = pickNext();
        const ComplexGroup &grp = groups.group(gi);

        // Earliest anchor time w.r.t. scheduled predecessors.
        long early = gAsap[std::size_t(gi)];
        for (const ArcTable::Bound &b : ws_.arcs.inArcs(gi)) {
            if (sched.scheduled(b.node))
                early = std::max(early, sched.time(b.node) + b.delta);
        }

        // Take the first conflict-free anchor of the II-wide window.
        if (!mrt.placeGroupFirstFit(g, grp, int(early), int(early + ii - 1),
                                    sched)) {
            // Forced placement: never earlier than last time + 1, which
            // guarantees forward progress.
            const long forced =
                std::max(early, lastTime[std::size_t(gi)] + 1);

            // Evict every group holding a resource this group needs.
            std::vector<int> &evict = ws_.evict;
            evict.clear();
            for (std::size_t i = 0; i < grp.members.size(); ++i) {
                const NodeId v = grp.members[i];
                const long t = forced + grp.offsets[i];
                mrt.conflicts(g.node(v).op, int(t), ws_.blockers);
                for (NodeId blocker : ws_.blockers) {
                    const int bg = groups.groupOf(blocker);
                    if (bg != gi &&
                        std::find(evict.begin(), evict.end(), bg) ==
                            evict.end()) {
                        evict.push_back(bg);
                    }
                }
            }
            for (int bg : evict)
                unplaceGroup(bg);

            // Even after eviction the slot may be infeasible (occupancy
            // longer than II interfering with itself); give up.
            if (!mrt.placeGroupFirstFit(g, grp, int(forced), int(forced),
                                        sched))
                return std::nullopt;
        }
        // The first member sits at offset 0: its time is the anchor.
        const long chosen = sched.time(grp.members[0]);
        placed[std::size_t(gi)] = 1;
        --unplacedCount;
        lastTime[std::size_t(gi)] = chosen;

        // Evict scheduled successors whose dependence is now violated:
        // the anchor passed the latest one the successor allows.
        for (const ArcTable::Bound &b : ws_.arcs.outArcs(gi)) {
            if (sched.scheduled(b.node) &&
                chosen > sched.time(b.node) + b.delta) {
                unplaceGroup(groups.groupOf(b.node));
            }
        }
    }

    sched.normalize();
    std::string why;
    SWP_ASSERT(validateSchedule(g, m, sched, &why),
               "IMS produced an invalid schedule: ", why);
    return sched;
}

} // namespace swp
