/**
 * @file
 * Facade of the register-constrained software pipeliner.
 *
 * This is the library's primary entry point: given a loop dependence
 * graph, a machine model and a register budget, produce a modulo
 * schedule plus register allocation that fits the budget, using one of
 * the paper's strategies.
 */

#ifndef SWP_PIPELINER_PIPELINER_HH
#define SWP_PIPELINER_PIPELINER_HH

#include "pipeliner/best_of_all.hh"
#include "pipeliner/increase_ii.hh"
#include "pipeliner/options.hh"
#include "pipeliner/result.hh"
#include "pipeliner/spill_pipeline.hh"

namespace swp
{

/** Register-reduction strategy (Figure 1 and Section 5). */
enum class Strategy
{
    IncreaseII,  ///< Reschedule at larger IIs (Section 3).
    Spill,       ///< Iterative spill code insertion (Section 4).
    BestOfAll,   ///< Combination proposed in Section 5.
    Ideal,       ///< Unlimited registers; `registers` is ignored.
};

const char *strategyName(Strategy s);

/** Run the chosen strategy on a loop. */
PipelineResult pipelineLoop(const Ddg &g, const Machine &m, Strategy s,
                            const PipelinerOptions &opts,
                            const EvalContext *ctx = nullptr);

/** The result references the input graph; temporaries would dangle. */
PipelineResult pipelineLoop(Ddg &&, const Machine &, Strategy,
                            const PipelinerOptions &,
                            const EvalContext * = nullptr) = delete;

/**
 * Schedule with an unlimited register file (the paper's "ideal"
 * baseline, Strategy::Ideal): the plain II search from MII with no
 * register constraint.
 */
PipelineResult pipelineIdeal(const Ddg &g, const Machine &m,
                             SchedulerKind kind = SchedulerKind::Hrms,
                             const EvalContext *ctx = nullptr);

/** The result references the input graph; temporaries would dangle. */
PipelineResult pipelineIdeal(Ddg &&, const Machine &,
                             SchedulerKind = SchedulerKind::Hrms,
                             const EvalContext * = nullptr) = delete;

} // namespace swp

#endif // SWP_PIPELINER_PIPELINER_HH
