/**
 * @file
 * Whole-graph reachability over a DDG's live edges, for tests that
 * check graph properties against a closure.
 */

#ifndef SWP_TESTKIT_REACHABILITY_HH
#define SWP_TESTKIT_REACHABILITY_HH

#include "ir/ddg.hh"
#include "support/bitmatrix.hh"

namespace swp
{

/**
 * Transitive reachability over live edges, one word-packed row per
 * node: test(u, v) is true iff a path of one or more edges leads from
 * u to v (so test(u, u) iff u lies on a cycle). Runs the library's
 * Tarjan and transitive closure over a CSR of the out-lists.
 */
BitMatrix reachability(const Ddg &g);

} // namespace swp

#endif // SWP_TESTKIT_REACHABILITY_HH
