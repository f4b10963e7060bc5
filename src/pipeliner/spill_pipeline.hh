/**
 * @file
 * The iterative spilling strategy (Section 4, Figure 1b).
 *
 * Schedule, allocate; while the allocation exceeds the budget, select
 * lifetimes with the configured heuristic, rewrite the graph with spill
 * code, and reschedule. Rescheduling is unavoidable because the added
 * loads/stores rarely fit the existing compact schedule. The
 * non-spillable marking and complex-operation fusion done by the
 * inserter guarantee the process converges (Section 4.3); the
 * multi-select and last-II heuristics (Section 4.5) trade a little
 * schedule quality for a large reduction in scheduling time.
 */

#ifndef SWP_PIPELINER_SPILL_PIPELINE_HH
#define SWP_PIPELINER_SPILL_PIPELINE_HH

#include <functional>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "pipeliner/context.hh"
#include "pipeliner/options.hh"
#include "pipeliner/result.hh"

namespace swp
{

/** Observer invoked after each round (used by the Figure 7 bench). */
struct SpillRoundInfo
{
    int round = 0;
    int ii = 0;
    int mii = 0;
    int regsRequired = 0;
    int memOps = 0;
    int spilledSoFar = 0;
};

using SpillRoundObserver = std::function<void(const SpillRoundInfo &)>;

/**
 * Run the iterative spilling strategy.
 *
 * When the iteration stops without fitting the budget (rounds
 * exhausted, candidates exhausted, or no schedulable II), the result
 * keeps the best — lowest register requirement — modulo schedule seen
 * across all rounds; the acyclic fallback of the original loop is used
 * only when no modulo schedule exists at all, or when the acyclic
 * schedule actually fits the budget (a valid result beats an
 * over-budget one).
 *
 * Each round's schedule is only tested against the budget (the
 * budget-bounded allocateWithinBudget); the over-budget rounds are
 * allocated exactly only when the iteration ends unfit and one of them
 * must be chosen. Their graphs are then rebuilt by replaying the
 * recorded spills on the input, so no round copies its graph while the
 * iteration runs. An observer still sees every round's exact register
 * requirement: for it alone, an over-budget round is allocated exactly
 * as it happens.
 */
PipelineResult spillStrategy(const Ddg &g, const Machine &m,
                             const PipelinerOptions &opts,
                             const SpillRoundObserver &observer = {},
                             const EvalContext *ctx = nullptr);

/** The result references the input graph; temporaries would dangle. */
PipelineResult spillStrategy(Ddg &&, const Machine &,
                             const PipelinerOptions &,
                             const SpillRoundObserver & = {},
                             const EvalContext * = nullptr) = delete;

} // namespace swp

#endif // SWP_PIPELINER_SPILL_PIPELINE_HH
