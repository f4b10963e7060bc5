/**
 * @file
 * Spill code insertion (Sections 4.2 and 4.3).
 *
 * Spilling a lifetime rewrites the dependence graph: the value's
 * register edges are removed; a store is inserted after the producer and
 * one load before each use; memory edges from the store to the loads
 * carry the original dependence distances, so the new short lifetimes
 * have no distance component. Optimizations: when the producer is a
 * load, the value is re-loaded from its original location and no store
 * is added; when a same-iteration store of the value already exists, it
 * serves as the spill store; loop invariants are stored before entering
 * the loop, so only loads are added.
 *
 * A use spill (the Section 6 extension) serves one use edge the same
 * way. Its value is parked in the spill store an earlier use spill of
 * it added, or in a fresh one: a use spill never reuses an original
 * store. So a candidate's `cost` (select.hh) is exactly the number of
 * memory operations insertSpill adds for it.
 *
 * Convergence guarantees: all lifetimes created by spill operations are
 * marked non-spillable, and the edges tying spill loads/stores to their
 * consumers/producers are marked for fusion into complex operations,
 * which the schedulers honour atomically.
 */

#ifndef SWP_SPILL_INSERT_HH
#define SWP_SPILL_INSERT_HH

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "spill/select.hh"

namespace swp
{

/**
 * Apply one spill to the graph.
 *
 * The candidate must be current for `g` (produced by spillCandidates on
 * this graph); spilling a non-spillable or dead value panics. The
 * machine provides the latencies used as fused delays; sibling reloads
 * feeding the same consumer get staggered delays (latency, latency+1,
 * ...) so they never contend for one functional unit in one kernel row,
 * which would make the fused group unschedulable at any II.
 */
void insertSpill(Ddg &g, const Machine &m, const SpillCandidate &cand);

} // namespace swp

#endif // SWP_SPILL_INSERT_HH
