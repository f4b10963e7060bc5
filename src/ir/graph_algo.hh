/**
 * @file
 * Graph algorithms over the DDG: strongly connected components,
 * the intra-iteration topological order, and reachability. These
 * underpin RecMII computation, DDG verification and the suite
 * generator.
 */

#ifndef SWP_IR_GRAPH_ALGO_HH
#define SWP_IR_GRAPH_ALGO_HH

#include <vector>

#include "ir/ddg.hh"
#include "support/bitmatrix.hh"

namespace swp
{

/**
 * Strongly connected components of a plain adjacency list (successor
 * lists; parallel edges and self-loops allowed). This is the one Tarjan
 * implementation in the library — the DDG overload and the schedulers'
 * condensed group graphs all decompose through it.
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
 * Iterative Tarjan over an adjacency list. numNodes < 0 means all of
 * succ; a smaller count restricts the run to the first numNodes rows
 * (reusable workspace adjacency may keep spare rows beyond the graph).
 */
AdjScc stronglyConnectedComponents(const std::vector<std::vector<int>> &succ,
                                   int numNodes = -1);

/**
 * Strongly connected components of the DDG (all live edges considered,
 * regardless of distance). Components with more than one node, or with a
 * self-edge, are recurrences.
 */
struct SccResult
{
    /** Component index per node, in reverse topological discovery order. */
    std::vector<int> compOf;
    /** Nodes of each component. */
    std::vector<std::vector<NodeId>> comps;

    /** True if the component is a recurrence (cycle through it). */
    std::vector<bool> isRecurrence;

    int numComps() const { return int(comps.size()); }
};

/** Tarjan SCC over live edges. */
SccResult stronglyConnectedComponents(const Ddg &g);

/**
 * Topological order of the loop-independent subgraph: only edges with
 * distance zero are honoured. Single-iteration semantics require this
 * order to exist; verifyDdg() checks it.
 */
std::vector<NodeId> topologicalOrderIntraIteration(const Ddg &g);

/**
 * Kahn's walk over the live zero-distance edges, the one shared by
 * topologicalOrderIntraIteration() and verifyDdg(). Fills `order` with
 * the nodes in that order and returns true, or returns false when a
 * zero-distance cycle leaves nodes out of `order`.
 */
bool intraIterationOrder(const Ddg &g, std::vector<NodeId> &order);

/**
 * Transitive reachability over live edges, one word-packed row per
 * node: test(u, v) is true iff a path of one or more edges leads from
 * u to v (so test(u, u) iff u lies on a cycle).
 */
BitMatrix reachability(const Ddg &g);

} // namespace swp

#endif // SWP_IR_GRAPH_ALGO_HH
