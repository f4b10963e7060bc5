#include "ir/graph_algo.hh"

#include <algorithm>

#include "support/diag.hh"

namespace swp
{

AdjScc
stronglyConnectedComponents(const std::vector<std::vector<int>> &succ)
{
    AdjScc result;
    SccScratch scratch;
    stronglyConnectedComponents(
        int(succ.size()),
        [&](int v) -> const std::vector<int> & {
            return succ[std::size_t(v)];
        },
        result, scratch);
    return result;
}

namespace
{

/** Successor lists over live edges, in outEdgeIds order. */
std::vector<std::vector<int>>
liveSuccessors(const Ddg &g)
{
    std::vector<std::vector<int>> succ(std::size_t(g.numNodes()));
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        std::vector<int> &out = succ[std::size_t(u)];
        out.reserve(g.outEdgeIds(u).size());
        for (EdgeId e : g.outEdgeIds(u)) {
            if (g.edge(e).alive)
                out.push_back(g.edge(e).dst);
        }
    }
    return succ;
}

} // namespace

SccResult
stronglyConnectedComponents(const Ddg &g)
{
    // Successor lists in live out-edge order: the DFS visits edges
    // exactly as the historical DDG-walking Tarjan did, so component
    // numbering and emission order are unchanged.
    const std::vector<std::vector<int>> succ = liveSuccessors(g);
    AdjScc adj = stronglyConnectedComponents(succ);

    SccResult result;
    result.compOf = std::move(adj.compOf);
    result.comps.reserve(std::size_t(adj.numComps()));
    for (int c = 0; c < adj.numComps(); ++c) {
        result.comps.emplace_back(adj.compNodes(c),
                                  adj.compNodes(c) + adj.compSize(c));
    }
    result.isRecurrence.assign(std::size_t(result.numComps()), false);
    for (int c = 0; c < result.numComps(); ++c) {
        if (result.comps[std::size_t(c)].size() > 1) {
            result.isRecurrence[std::size_t(c)] = true;
        }
    }
    // A single node with a self edge is also a recurrence.
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        for (int w : succ[std::size_t(n)]) {
            if (w == n)
                result.isRecurrence[std::size_t(
                    result.compOf[std::size_t(n)])] = true;
        }
    }
    return result;
}

bool
intraIterationOrder(const Ddg &g, std::vector<NodeId> &order)
{
    const int n = g.numNodes();
    std::vector<int> indeg(std::size_t(n), 0);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive && edge.distance == 0)
            ++indeg[std::size_t(edge.dst)];
    }
    // `order` doubles as the ready queue: a node is appended when its
    // last zero-distance predecessor has been ordered.
    order.clear();
    order.reserve(std::size_t(n));
    for (NodeId u = 0; u < n; ++u) {
        if (indeg[std::size_t(u)] == 0)
            order.push_back(u);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
        for (EdgeId e : g.outEdgeIds(order[i])) {
            const Edge &edge = g.edge(e);
            if (!edge.alive || edge.distance != 0)
                continue;
            if (--indeg[std::size_t(edge.dst)] == 0)
                order.push_back(edge.dst);
        }
    }
    return int(order.size()) == n;
}

std::vector<NodeId>
topologicalOrderIntraIteration(const Ddg &g)
{
    std::vector<NodeId> order;
    if (!intraIterationOrder(g, order)) {
        SWP_FATAL("loop '", g.name(),
                  "' has a zero-distance dependence cycle");
    }
    return order;
}

BitMatrix
reachability(const Ddg &g)
{
    const std::vector<std::vector<int>> succ = liveSuccessors(g);
    const AdjScc scc = stronglyConnectedComponents(succ);

    BitMatrix reach;
    transitiveClosure(
        scc,
        [&](int v) -> const std::vector<int> & {
            return succ[std::size_t(v)];
        },
        false, reach);
    return reach;
}

} // namespace swp
