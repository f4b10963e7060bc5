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
 * A set of regions in flat storage: region r's edges are
 * edges[edgeBegin[r] .. edgeBegin[r + 1]), in edge-id order.
 */
struct CyclicRegions
{
    struct Region
    {
        int numNodes = 0;
        long latencySum = 0;
    };

    std::vector<Region> regions;
    std::vector<int> edgeBegin;
    std::vector<RegionArc> edges;

    int size() const { return int(regions.size()); }

    RecurrenceRegion
    region(int r) const
    {
        const Region &info = regions[std::size_t(r)];
        return {info.numNodes, info.latencySum,
                edges.data() + edgeBegin[std::size_t(r)],
                edges.data() + edgeBegin[std::size_t(r) + 1]};
    }
};

/** cyclicRegions' working storage. */
struct RegionScratch
{
    CsrAdj succ;
    AdjScc scc;
    SccScratch tarjan;
    /** Region per node (-1 outside every region), local id per node. */
    std::vector<int> regionOf, localId;
    /** Per component: does it hold a cycle. */
    std::vector<char> cyclic;
    /** Next free edge slot per region while filling. */
    std::vector<int> cursor;
};

/**
 * Bellman-Ford positive-cycle detection restricted to one region, with
 * edge weight latency - II * distance (longest-path relaxation from a
 * virtual source connected to every member with weight 0). A positive
 * cycle exists iff some dependence cycle of the region needs more than
 * II cycles per iteration.
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

/**
 * Distribute the live edges whose endpoints share a region (by
 * regionOf) into out's per-region edge ranges, keeping edge-id order
 * inside each range. out.regions must already be filled.
 */
void
fillRegionEdges(const Ddg &g, const Machine &m, RegionScratch &scratch,
                CyclicRegions &out)
{
    const std::vector<int> &regionOf = scratch.regionOf;
    auto regionOfEdge = [&](const Edge &edge) {
        const int r = regionOf[std::size_t(edge.src)];
        return edge.alive && r == regionOf[std::size_t(edge.dst)] ? r : -1;
    };
    out.edgeBegin.assign(std::size_t(out.size()) + 1, 0);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const int r = regionOfEdge(g.edge(e));
        if (r >= 0)
            ++out.edgeBegin[std::size_t(r) + 1];
    }
    for (int r = 0; r < out.size(); ++r)
        out.edgeBegin[std::size_t(r) + 1] += out.edgeBegin[std::size_t(r)];
    out.edges.resize(std::size_t(out.edgeBegin.back()));
    scratch.cursor.assign(out.edgeBegin.begin(), out.edgeBegin.end() - 1);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        const int r = regionOfEdge(edge);
        if (r < 0)
            continue;
        out.edges[std::size_t(scratch.cursor[std::size_t(r)]++)] = {
            scratch.localId[std::size_t(edge.src)],
            scratch.localId[std::size_t(edge.dst)],
            m.latency(g.node(edge.src).op), long(edge.distance)};
    }
}

/**
 * Decompose the graph into its cyclic SCCs over live edges. Every
 * dependence cycle lies inside exactly one of the regions, so RecMII
 * questions decompose into per-region questions. Successors are a CSR
 * in edge-id order, which fixes the component (and region) numbering.
 */
void
cyclicRegions(const Ddg &g, const Machine &m, RegionScratch &scratch,
              CyclicRegions &out)
{
    const int n = g.numNodes();
    scratch.succ.build(n, [&](auto &&emit) {
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (edge.alive)
                emit(edge.src, edge.dst);
        }
    });
    const AdjScc &scc = scratch.scc;
    stronglyConnectedComponents(
        n, [&](int v) { return scratch.succ.row(v); }, scratch.scc,
        scratch.tarjan);

    // A component is cyclic when it has several members or a self-edge;
    // cyclic components become regions in component order.
    std::vector<char> &cyclic = scratch.cyclic;
    cyclic.assign(std::size_t(scc.numComps()), 0);
    for (int c = 0; c < scc.numComps(); ++c)
        cyclic[std::size_t(c)] = scc.compSize(c) > 1;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive && edge.src == edge.dst)
            cyclic[std::size_t(scc.compOf[std::size_t(edge.src)])] = 1;
    }

    out.regions.clear();
    scratch.regionOf.assign(std::size_t(n), -1);
    scratch.localId.assign(std::size_t(n), -1);
    for (int c = 0; c < scc.numComps(); ++c) {
        if (!cyclic[std::size_t(c)])
            continue;
        const int r = out.size();
        out.regions.emplace_back();
        CyclicRegions::Region &info = out.regions.back();
        const int *members = scc.compNodes(c);
        for (int i = 0; i < scc.compSize(c); ++i) {
            const int v = members[i];
            scratch.regionOf[std::size_t(v)] = r;
            scratch.localId[std::size_t(v)] = info.numNodes++;
            info.latencySum += m.latency(g.node(v).op);
        }
    }
    fillRegionEdges(g, m, scratch, out);
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
    // RecMII = max over cyclic SCCs of the component's RecMII. Each
    // component binary-searches independently over component-local
    // edges, and a component whose cycles already fit the best bound so
    // far is dismissed with a single feasibility check (early exit)
    // instead of a full search.
    RegionScratch scratch;
    CyclicRegions regions;
    cyclicRegions(g, m, scratch, regions);
    std::vector<long> dist;
    long best = 1;
    for (int i = 0; i < regions.size(); ++i)
        best = regionRecMii(regions.region(i), best, dist);
    return int(best);
}

int
mii(const Ddg &g, const Machine &m)
{
    return std::max(resMii(g, m), recMii(g, m));
}

} // namespace swp
