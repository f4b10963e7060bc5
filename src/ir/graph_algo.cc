#include "ir/graph_algo.hh"

#include <algorithm>

#include "support/diag.hh"

namespace swp
{

AdjScc
stronglyConnectedComponents(const std::vector<std::vector<int>> &succ,
                            int numNodes)
{
    const int n = numNodes < 0 ? int(succ.size()) : numNodes;
    SWP_ASSERT(std::size_t(n) <= succ.size(),
               "SCC over more nodes than adjacency rows");
    AdjScc result;
    result.compOf.assign(std::size_t(n), -1);
    result.nodes.reserve(std::size_t(n));
    result.compBegin.push_back(0);
    std::vector<int> index(std::size_t(n), -1);
    std::vector<int> lowlink(std::size_t(n), 0);
    std::vector<bool> onStack(std::size_t(n), false);
    std::vector<int> stack;
    int nextIndex = 0;

    // Explicit DFS stack of (node, next-successor-cursor) to avoid deep
    // recursion on long dependence chains.
    struct Frame { int n; std::size_t i; };
    std::vector<Frame> frames;
    for (int root = 0; root < n; ++root) {
        if (index[std::size_t(root)] >= 0)
            continue;
        frames.push_back({root, 0});
        index[std::size_t(root)] = lowlink[std::size_t(root)] =
            nextIndex++;
        stack.push_back(root);
        onStack[std::size_t(root)] = true;

        while (!frames.empty()) {
            Frame &f = frames.back();
            const std::vector<int> &succs = succ[std::size_t(f.n)];
            if (f.i < succs.size()) {
                const int w = succs[f.i++];
                if (index[std::size_t(w)] < 0) {
                    index[std::size_t(w)] = lowlink[std::size_t(w)] =
                        nextIndex++;
                    stack.push_back(w);
                    onStack[std::size_t(w)] = true;
                    frames.push_back({w, 0});
                } else if (onStack[std::size_t(w)]) {
                    lowlink[std::size_t(f.n)] = std::min(
                        lowlink[std::size_t(f.n)], index[std::size_t(w)]);
                }
            } else {
                const int v = f.n;
                frames.pop_back();
                if (!frames.empty()) {
                    const int parent = frames.back().n;
                    lowlink[std::size_t(parent)] = std::min(
                        lowlink[std::size_t(parent)],
                        lowlink[std::size_t(v)]);
                }
                if (lowlink[std::size_t(v)] == index[std::size_t(v)]) {
                    const int comp = int(result.compBegin.size()) - 1;
                    int w;
                    do {
                        w = stack.back();
                        stack.pop_back();
                        onStack[std::size_t(w)] = false;
                        result.compOf[std::size_t(w)] = comp;
                        result.nodes.push_back(w);
                    } while (w != v);
                    result.compBegin.push_back(int(result.nodes.size()));
                }
            }
        }
    }
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
    const int n = g.numNodes();
    const std::vector<std::vector<int>> succ = liveSuccessors(g);
    const AdjScc scc = stronglyConnectedComponents(succ);

    // Tarjan emits components in reverse topological order: for an edge
    // between distinct components a -> b, compOf(b) < compOf(a). So
    // visiting components in increasing index finds every successor
    // component's row complete. A component's row is built in the row
    // of its first node: each edge target's bit plus, across
    // components, the target component's row. Every member of a cyclic
    // component is the target of an edge inside it (a self-edge for a
    // single node), so its own members land in the row with no special
    // case.
    BitMatrix reach(n, n);
    const int words = reach.wordsPerRow();
    for (int c = 0; c < scc.numComps(); ++c) {
        const int *members = scc.compNodes(c);
        std::uint64_t *row = reach.row(members[0]);
        for (int i = 0; i < scc.compSize(c); ++i) {
            for (int w : succ[std::size_t(members[i])]) {
                reach.set(members[0], w);
                const int d = scc.compOf[std::size_t(w)];
                if (d != c)
                    reach.orRowInto(scc.compNodes(d)[0], row);
            }
        }
        for (int i = 1; i < scc.compSize(c); ++i)
            std::copy_n(row, words, reach.row(members[i]));
    }
    return reach;
}

} // namespace swp
