#include "sched/mii.hh"

#include <algorithm>
#include <vector>

#include "ir/graph_algo.hh"
#include "support/diag.hh"

namespace swp
{

int
resMii(const Ddg &g, const Machine &m)
{
    // Total unit occupancy per class.
    std::vector<long> occupancy(std::size_t(m.numClasses()), 0);
    int maxSingleOccupancy = 1;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        const Opcode op = g.node(n).op;
        occupancy[std::size_t(m.classOf(op))] += m.occupancy(op);
        // A non-pipelined op re-needs its unit after II cycles, so the
        // pattern only fits if II >= occupancy.
        maxSingleOccupancy = std::max(maxSingleOccupancy, m.occupancy(op));
    }

    long bound = 1;
    for (int cls = 0; cls < m.numClasses(); ++cls) {
        const long units = m.unitsInClass(cls);
        if (occupancy[std::size_t(cls)] == 0)
            continue;
        SWP_ASSERT(units > 0, "ops of class ", m.className(cls),
                   " but machine has no such unit");
        bound = std::max(bound,
                         (occupancy[std::size_t(cls)] + units - 1) / units);
    }
    return int(std::max<long>(bound, maxSingleOccupancy));
}

namespace
{

/**
 * Bellman-Ford positive-cycle detection restricted to one region, with
 * edge weight latency - II * distance (longest-path relaxation from a
 * virtual source connected to every member with weight 0). A positive
 * cycle exists iff some dependence cycle of the region needs more than
 * II cycles per iteration. The answer does not depend on the order of
 * the region's arcs: without a positive cycle every longest path has
 * fewer than numNodes arcs, so the sweeps settle within numNodes - 1
 * rounds whatever the order; with one they never settle.
 */
bool
hasPositiveCycle(const RecurrenceRegion &r, long ii,
                 std::vector<long> &dist)
{
    dist.assign(std::size_t(r.numNodes), 0);
    for (int iter = 0; iter < r.numNodes; ++iter) {
        bool changed = false;
        for (const RegionArc *e = r.first; e != r.last; ++e) {
            const long w = e->latency - ii * e->distance;
            if (dist[std::size_t(e->src)] + w > dist[std::size_t(e->dst)]) {
                dist[std::size_t(e->dst)] = dist[std::size_t(e->src)] + w;
                changed = true;
            }
        }
        if (!changed)
            return false;
    }
    return true;
}

} // namespace

long
regionRecMii(const RecurrenceRegion &r, long floor, std::vector<long> &dist)
{
    if (!hasPositiveCycle(r, floor, dist))
        return floor;
    // Binary search: `lo` is infeasible throughout, `hi` feasible.
    long lo = floor;
    long hi = r.latencySum + 1;
    while (lo + 1 < hi) {
        const long mid = lo + (hi - lo) / 2;
        if (hasPositiveCycle(r, mid, dist))
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

int
recMii(const Ddg &g, const Machine &m)
{
    // Every dependence cycle lies inside one SCC of the live edges, so
    // RecMII is the maximum over the cyclic components of each one's
    // RecMII. The running maximum is each search's floor: a component
    // whose cycles already fit it is dismissed with one feasibility
    // check. Tarjan runs on a CSR of the live edges in edge-id order;
    // each component's arcs come from its members' out-lists.
    const int n = g.numNodes();
    CsrAdj succ;
    succ.build(n, [&](auto &&emit) {
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (edge.alive)
                emit(edge.src, edge.dst);
        }
    });
    AdjScc scc;
    SccScratch tarjan;
    stronglyConnectedComponents(
        n, [&](int v) { return succ.row(v); }, scc, tarjan);

    std::vector<int> localId(std::size_t(n), 0);
    std::vector<RegionArc> arcs;
    std::vector<long> dist;
    long best = 1;
    for (int c = 0; c < scc.numComps(); ++c) {
        const int *members = scc.compNodes(c);
        const int size = scc.compSize(c);
        // A single member is cyclic only through a self-edge.
        if (size == 1) {
            const CsrAdj::Row row = succ.row(members[0]);
            if (std::find(row.begin(), row.end(), members[0]) == row.end())
                continue;
        }
        RecurrenceRegion region;
        region.numNodes = size;
        for (int i = 0; i < size; ++i) {
            localId[std::size_t(members[i])] = i;
            region.latencySum += m.latency(g.node(members[i]).op);
        }
        arcs.clear();
        for (int i = 0; i < size; ++i) {
            const long latency = m.latency(g.node(members[i]).op);
            for (const EdgeId e : g.outEdges(members[i])) {
                const Edge &edge = g.edge(e);
                if (scc.compOf[std::size_t(edge.dst)] == c)
                    arcs.push_back({i, localId[std::size_t(edge.dst)],
                                    latency, long(edge.distance)});
            }
        }
        region.first = arcs.data();
        region.last = region.first + arcs.size();
        best = regionRecMii(region, best, dist);
    }
    return int(best);
}

int
mii(const Ddg &g, const Machine &m)
{
    return std::max(resMii(g, m), recMii(g, m));
}

} // namespace swp
