/**
 * @file
 * Transitive closure over the library's SCC decomposition, and
 * whole-graph reachability over a DDG's live edges built with it, for
 * tests that check graph properties against a closure.
 */

#ifndef SWP_TESTKIT_REACHABILITY_HH
#define SWP_TESTKIT_REACHABILITY_HH

#include <algorithm>

#include "ir/ddg.hh"
#include "ir/graph_algo.hh"
#include "support/bitmatrix.hh"

namespace swp
{

/**
 * Transitive closure from an SCC decomposition: row v of `out` gets
 * every node reachable from v by one or more arcs of succOf (so v
 * itself only when it lies on a cycle). `scc` decomposes succOf's
 * graph; Tarjan emits components in reverse topological order, so
 * every successor component's row is complete when it is read. A
 * component's row is built in the row of its first member, then
 * copied to the others: every member of a cyclic component is the
 * target of an arc inside it (a self-arc for a single node), so its
 * own members land in the row with no special case. Costs O(arcs x
 * words per row).
 */
template <typename SuccOf>
void
transitiveClosure(const AdjScc &scc, SuccOf &&succOf, BitMatrix &out)
{
    const int n = int(scc.compOf.size());
    out.reset(n, n);
    const int words = out.wordsPerRow();
    const int comps = scc.numComps();
    for (int c = 0; c < comps; ++c) {
        const int *members = scc.compNodes(c);
        std::uint64_t *row = out.row(members[0]);
        for (int i = 0; i < scc.compSize(c); ++i) {
            for (const int w : succOf(members[i])) {
                out.set(members[0], w);
                const int d = scc.compOf[std::size_t(w)];
                if (d != c)
                    out.orRowInto(scc.compNodes(d)[0], row);
            }
        }
        for (int i = 1; i < scc.compSize(c); ++i)
            std::copy_n(row, words, out.row(members[i]));
    }
}

/**
 * Transitive reachability over live edges, one word-packed row per
 * node: test(u, v) is true iff a path of one or more edges leads from
 * u to v (so test(u, u) iff u lies on a cycle). Runs the library's
 * Tarjan and transitiveClosure over a CSR of the out-lists.
 */
BitMatrix reachability(const Ddg &g);

} // namespace swp

#endif // SWP_TESTKIT_REACHABILITY_HH
