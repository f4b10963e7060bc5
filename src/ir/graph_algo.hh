/**
 * @file
 * Graph algorithms over the DDG and the schedulers' condensed graphs:
 * CSR adjacency, strongly connected components and the
 * intra-iteration topological order. These underpin RecMII
 * computation, the HRMS pre-ordering and DDG verification.
 */

#ifndef SWP_IR_GRAPH_ALGO_HH
#define SWP_IR_GRAPH_ALGO_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ir/ddg.hh"

namespace swp
{

/**
 * Strongly connected components of an adjacency structure, in the flat
 * form stronglyConnectedComponents() below emits them.
 */
struct AdjScc
{
    /** Component index per node, in reverse topological discovery order:
        an edge between distinct components a -> b has compOf[b] <
        compOf[a]. */
    std::vector<int> compOf;
    /** All nodes grouped by component (flat storage: Tarjan emits each
        component contiguously, so no per-component vector is needed). */
    std::vector<int> nodes;
    /** Offsets into nodes; component c is [compBegin[c], compBegin[c+1]). */
    std::vector<int> compBegin;

    int numComps() const { return int(compBegin.size()) - 1; }
    int compSize(int c) const
    {
        return compBegin[std::size_t(c) + 1] - compBegin[std::size_t(c)];
    }
    const int *compNodes(int c) const
    {
        return nodes.data() + compBegin[std::size_t(c)];
    }
};

/**
 * Successor lists in compressed sparse row form: the successors of v
 * are targets[offsets[v] .. offsets[v + 1]), in the order the arcs were
 * emitted. build() recycles both arrays, so a CSR held in a workspace
 * stops allocating once it has seen its largest graph.
 */
struct CsrAdj
{
    /** A row of successors (random access, like a vector's). */
    struct Row
    {
        const int *first;
        const int *last;
        const int *begin() const { return first; }
        const int *end() const { return last; }
        std::size_t size() const { return std::size_t(last - first); }
        int operator[](std::size_t i) const { return first[i]; }
    };

    std::vector<int> offsets;
    std::vector<int> targets;

    /**
     * Rows over n nodes. forEachArc(emit) must call emit(from, to) for
     * every arc, in the same order each time: it runs twice, once to
     * count row sizes and once to fill the rows.
     */
    template <typename ForEachArc>
    void
    build(int n, ForEachArc &&forEachArc)
    {
        offsets.assign(std::size_t(n) + 1, 0);
        forEachArc([&](int from, int) { ++offsets[std::size_t(from) + 1]; });
        for (int v = 0; v < n; ++v)
            offsets[std::size_t(v) + 1] += offsets[std::size_t(v)];
        targets.resize(std::size_t(offsets[std::size_t(n)]));
        // Fill through the row starts, then shift them back.
        forEachArc([&](int from, int to) {
            targets[std::size_t(offsets[std::size_t(from)]++)] = to;
        });
        for (int v = n; v > 0; --v)
            offsets[std::size_t(v)] = offsets[std::size_t(v) - 1];
        offsets[0] = 0;
    }

    Row
    row(int v) const
    {
        const int *base = targets.data();
        return {base + offsets[std::size_t(v)],
                base + offsets[std::size_t(v) + 1]};
    }
};

/** Tarjan's working arrays; every run recycles them. */
struct SccScratch
{
    struct Frame
    {
        int node;
        std::size_t next;  ///< Cursor into the node's successor range.
    };
    std::vector<int> index, lowlink, stack;
    std::vector<char> onStack;
    std::vector<Frame> frames;
};

/**
 * Iterative Tarjan over nodes [0, n): succOf(v) returns v's successors
 * as a random-access range (a vector, a CsrAdj::Row). Parallel edges and
 * self-loops are allowed. This is the one Tarjan implementation in the
 * library — recurrence regions and the schedulers' condensed group
 * graphs both decompose through it. Components are numbered in reverse
 * topological discovery order, visiting roots in node order and
 * successors in range order; `out` and `scratch` are recycled.
 */
template <typename SuccOf>
void
stronglyConnectedComponents(int n, SuccOf &&succOf, AdjScc &out,
                            SccScratch &scratch)
{
    out.compOf.assign(std::size_t(n), -1);
    out.nodes.clear();
    out.nodes.reserve(std::size_t(n));
    out.compBegin.assign(1, 0);
    out.compBegin.reserve(std::size_t(n) + 1);
    std::vector<int> &index = scratch.index;
    std::vector<int> &lowlink = scratch.lowlink;
    std::vector<char> &onStack = scratch.onStack;
    std::vector<int> &stack = scratch.stack;
    std::vector<SccScratch::Frame> &frames = scratch.frames;
    index.assign(std::size_t(n), -1);
    lowlink.assign(std::size_t(n), 0);
    onStack.assign(std::size_t(n), 0);
    stack.clear();
    stack.reserve(std::size_t(n));
    frames.clear();
    frames.reserve(std::size_t(n));
    int nextIndex = 0;

    // Explicit DFS stack of (node, next-successor cursor) to avoid deep
    // recursion on long dependence chains.
    for (int root = 0; root < n; ++root) {
        if (index[std::size_t(root)] >= 0)
            continue;
        frames.push_back({root, 0});
        index[std::size_t(root)] = lowlink[std::size_t(root)] =
            nextIndex++;
        stack.push_back(root);
        onStack[std::size_t(root)] = 1;

        while (!frames.empty()) {
            SccScratch::Frame &f = frames.back();
            const auto &succs = succOf(f.node);
            if (f.next < succs.size()) {
                const int w = succs[f.next++];
                if (index[std::size_t(w)] < 0) {
                    index[std::size_t(w)] = lowlink[std::size_t(w)] =
                        nextIndex++;
                    stack.push_back(w);
                    onStack[std::size_t(w)] = 1;
                    frames.push_back({w, 0});
                } else if (onStack[std::size_t(w)]) {
                    lowlink[std::size_t(f.node)] =
                        std::min(lowlink[std::size_t(f.node)],
                                 index[std::size_t(w)]);
                }
            } else {
                const int v = f.node;
                frames.pop_back();
                if (!frames.empty()) {
                    const int parent = frames.back().node;
                    lowlink[std::size_t(parent)] =
                        std::min(lowlink[std::size_t(parent)],
                                 lowlink[std::size_t(v)]);
                }
                if (lowlink[std::size_t(v)] == index[std::size_t(v)]) {
                    const int comp = int(out.compBegin.size()) - 1;
                    int w;
                    do {
                        w = stack.back();
                        stack.pop_back();
                        onStack[std::size_t(w)] = 0;
                        out.compOf[std::size_t(w)] = comp;
                        out.nodes.push_back(w);
                    } while (w != v);
                    out.compBegin.push_back(int(out.nodes.size()));
                }
            }
        }
    }
}

/**
 * Topological order of the loop-independent subgraph: Kahn's walk over
 * the live zero-distance edges. Single-iteration semantics require this
 * order to exist; verifyDdg() checks it. Fills `order` with the nodes
 * in that order and returns true, or returns false when a zero-distance
 * cycle leaves nodes out of `order`.
 */
bool intraIterationOrder(const Ddg &g, std::vector<NodeId> &order);

} // namespace swp

#endif // SWP_IR_GRAPH_ALGO_HH
