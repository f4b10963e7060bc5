/**
 * @file
 * Acyclic (local) list scheduler.
 *
 * The Cydra 5 compiler falls back to scheduling the loop body without
 * modulo scheduling when the increase-II strategy fails to meet the
 * register budget (Section 1). This scheduler produces that fallback: a
 * resource-constrained list schedule of a single iteration honouring the
 * intra-iteration (distance 0) dependences, packaged as a degenerate
 * modulo schedule whose II equals the iteration makespan (stage count 1,
 * i.e. no overlap between iterations).
 *
 * It reads the inputs the modulo schedulers read: the complex-group
 * partition, the arc table's zero-distance boundary arcs (Kahn's walk
 * and each group's earliest anchor), and an MRT whose II is the
 * defaultMaxIi horizon, where each group takes the first anchor that
 * Mrt::placeGroupFirstFit finds from its earliest one.
 */

#ifndef SWP_SCHED_ACYCLIC_HH
#define SWP_SCHED_ACYCLIC_HH

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "sched/schedule.hh"

namespace swp
{

/**
 * List-schedule one iteration and wrap it as a single-stage modulo
 * schedule. Always succeeds.
 */
Schedule scheduleAcyclic(const Ddg &g, const Machine &m);

} // namespace swp

#endif // SWP_SCHED_ACYCLIC_HH
