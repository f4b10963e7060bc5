/**
 * @file
 * Deterministic single-site mutations of legal pipeline results.
 *
 * Negative testing for the legality verifier: each helper takes a legal
 * artifact, perturbs exactly one site (an op's cycle, its unit, a
 * value's register offset, a kernel slot), and returns the mutant. The
 * verifier must reject every mutant with a diagnostic of the matching
 * ViolationKind — a checker that accepts a known-broken schedule is
 * worse than no checker, because it lends false authority.
 */

#ifndef SWP_TESTKIT_MUTATE_HH
#define SWP_TESTKIT_MUTATE_HH

#include "codegen/kernel.hh"
#include "ir/ddg.hh"
#include "regalloc/rotalloc.hh"
#include "sched/schedule.hh"
#include "verify/certify.hh"

namespace swp
{

/** Copy of s with node n moved to cycle t (unit kept). */
Schedule withCycle(const Schedule &s, NodeId n, int t);

/** Copy of s with node n moved to unit u (cycle kept). */
Schedule withUnit(const Schedule &s, NodeId n, int u);

/** Copy of alloc with value n's rotating offset set to off. */
AllocationOutcome withOffset(const AllocationOutcome &alloc, NodeId n,
                             int off);

/** Copy of kernel with node n's slot retagged to the given stage. */
KernelCode withSlotStage(const KernelCode &kernel, NodeId n, int stage);

/** Copy of kernel with node n's slot moved to the given row. */
KernelCode withSlotRow(const KernelCode &kernel, NodeId n, int row);

/** Copy of kernel with node n's slot deleted. */
KernelCode withSlotDropped(const KernelCode &kernel, NodeId n);

/**
 * First live edge whose dependence becomes violated when its
 * destination issues earlier, i.e. one with no slack at the current
 * schedule: t(dst) == t(src) + latency(src) - distance * II. Returns -1
 * if every edge has slack (then any edge's dst can be moved by -slack-1
 * instead). Used by tests to pick a provably illegal cycle mutation.
 */
EdgeId findTightEdge(const Ddg &g, const Machine &m, const Schedule &s);

/** @name Certificate corruptions (verify/certify negative testing).
    Each perturbs exactly one site of a valid certificate bundle; the
    certificate checker must reject every mutant with a diagnostic of
    the matching CertKind. */
/// @{

/** Copy of cert with critical-cycle edge `pos` replaced by `e`. */
Certificate withCycleEdge(const Certificate &cert, std::size_t pos,
                          EdgeId e);

/** Copy of cert with resource tally `pos`'s occupancy set to `occ`. */
Certificate withTallyOccupancy(const Certificate &cert, std::size_t pos,
                               long occ);

/** Copy of cert with register term `pos`'s lifetime floor set to lt. */
Certificate withTermLifetime(const Certificate &cert, std::size_t pos,
                             int lt);

/** Copy of cert with the register floor raised/lowered to `bound`. */
Certificate withRegisterBound(const Certificate &cert, int bound);

/** Copy of cert claiming the overall II lower bound `bound`. */
Certificate withIiBound(const Certificate &cert, int bound);

/// @}

} // namespace swp

#endif // SWP_TESTKIT_MUTATE_HH
