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

/** An internal live edge of a region, renumbered to local node ids. */
struct LocalEdge
{
    int src = 0;
    int dst = 0;
    long latency = 0;
    long distance = 0;
};

/**
 * One cyclic region (an SCC with a cycle, or an explicit node subset):
 * the whole RecMII computation for it touches only its own edges, so
 * one Bellman-Ford sweep costs O(region) instead of O(graph).
 */
struct RegionView
{
    int numNodes = 0;
    /** Sum of member latencies: RecMII of the region is below this, so
        latencySum + 1 is always a feasible II for it. */
    long latencySum = 0;
    const LocalEdge *first = nullptr;
    const LocalEdge *last = nullptr;
};

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
    std::vector<LocalEdge> edges;

    int size() const { return int(regions.size()); }

    RegionView
    region(int r) const
    {
        const Region &info = regions[std::size_t(r)];
        return {info.numNodes, info.latencySum,
                edges.data() + edgeBegin[std::size_t(r)],
                edges.data() + edgeBegin[std::size_t(r) + 1]};
    }
};

/** Storage the region builders recycle across graphs. */
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
hasPositiveCycle(const RegionView &r, long ii, std::vector<long> &dist)
{
    dist.assign(std::size_t(r.numNodes), 0);
    for (int iter = 0; iter < r.numNodes; ++iter) {
        bool changed = false;
        for (const LocalEdge *e = r.first; e != r.last; ++e) {
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
 * Smallest II at which the region admits no positive cycle, given that
 * `lo` does admit one (binary search; `lo` is infeasible throughout).
 */
long
searchRegionRecMii(const RegionView &r, long lo, std::vector<long> &dist)
{
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

/** One region over an explicit node subset (its internal live edges). */
void
subsetRegion(const Ddg &g, const Machine &m,
             const std::vector<NodeId> &nodes, RegionScratch &scratch,
             CyclicRegions &out)
{
    scratch.regionOf.assign(std::size_t(g.numNodes()), -1);
    scratch.localId.assign(std::size_t(g.numNodes()), -1);
    out.regions.assign(1, {});
    CyclicRegions::Region &info = out.regions.back();
    for (const NodeId v : nodes) {
        if (scratch.localId[std::size_t(v)] >= 0)
            continue;
        scratch.regionOf[std::size_t(v)] = 0;
        scratch.localId[std::size_t(v)] = info.numNodes++;
        info.latencySum += m.latency(g.node(v).op);
    }
    fillRegionEdges(g, m, scratch, out);
}

} // namespace

/** The recycled subset region and Bellman-Ford storage. */
struct RecurrenceScratch::Impl
{
    CyclicRegions subset;
    RegionScratch scratch;
    std::vector<long> dist;
};

RecurrenceScratch::RecurrenceScratch() = default;
RecurrenceScratch::~RecurrenceScratch() = default;

RecurrenceScratch::Impl &
RecurrenceScratch::impl()
{
    if (!impl_)
        impl_ = std::make_unique<Impl>();
    return *impl_;
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
    for (int i = 0; i < regions.size(); ++i) {
        const RegionView r = regions.region(i);
        if (!hasPositiveCycle(r, best, dist))
            continue;
        best = searchRegionRecMii(r, best, dist);
    }
    return int(best);
}

int
recMiiOfComponent(const Ddg &g, const Machine &m,
                  const std::vector<NodeId> &nodes,
                  RecurrenceScratch &scratch)
{
    RecurrenceScratch::Impl &c = scratch.impl();
    subsetRegion(g, m, nodes, c.scratch, c.subset);
    const RegionView r = c.subset.region(0);
    if (!hasPositiveCycle(r, 1, c.dist))
        return 1;
    return int(searchRegionRecMii(r, 1, c.dist));
}

int
mii(const Ddg &g, const Machine &m)
{
    return std::max(resMii(g, m), recMii(g, m));
}

} // namespace swp
