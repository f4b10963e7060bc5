/**
 * @file
 * Facade of the register-constrained software pipeliner.
 *
 * This is the library's primary entry point: given a loop dependence
 * graph, a machine model and a register budget, produce a modulo
 * schedule plus register allocation that fits the budget, using one of
 * the paper's strategies:
 *
 * - Increase-II (Section 3): reschedule the loop at successively larger
 *   initiation intervals until the register allocator finds a solution
 *   within the budget. Larger IIs shrink the scheduling component of
 *   lifetimes but the distance component grows proportionally to II and
 *   loop invariants always need their register, so for some loops this
 *   never converges; the search is bounded at the acyclic (single-stage)
 *   schedule length, beyond which no register reduction is possible,
 *   and then falls back to local scheduling as the Cydra 5 compiler did.
 *
 * - Spill (Section 4, Figure 1b): schedule, allocate; while the
 *   allocation exceeds the budget, select lifetimes with the configured
 *   heuristic, rewrite the graph with spill code, and reschedule. The
 *   non-spillable marking and complex-operation fusion done by the
 *   inserter guarantee convergence (Section 4.3); the multi-select and
 *   last-II heuristics (Section 4.5) trade a little schedule quality for
 *   far fewer schedules.
 *
 * - Best-of-all (Section 5): run the spill strategy; when it converges
 *   at II_spill with spill code, test whether the original loop also
 *   fits the registers at II_spill and, if it does, binary-search the
 *   smallest such II in [MII, II_spill]. This captures the few loops
 *   where increasing the II beats spilling, at the cost of one extra
 *   schedule for most loops.
 *
 * Safety net: HRMS's non-backtracking placement can fail on
 * pathological group topologies at every II. The II searches of the
 * ideal baseline, of every spill round and of registersAtIi then run
 * again on IMS, whose eviction handles those at some register-quality
 * cost. Increase-II and best-of-all's binary search probe single IIs
 * of the unspilled loop and use the core scheduler only.
 */

#ifndef SWP_PIPELINER_PIPELINER_HH
#define SWP_PIPELINER_PIPELINER_HH

#include <functional>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "pipeliner/options.hh"
#include "pipeliner/result.hh"
#include "sched/scheduler.hh"

namespace swp
{

class ScheduleMemo;

/** Register-reduction strategy (Figure 1 and Section 5). */
enum class Strategy
{
    IncreaseII,  ///< Reschedule at larger IIs (Section 3).
    Spill,       ///< Iterative spill code insertion (Section 4).
    BestOfAll,   ///< Combination proposed in Section 5.
    Ideal,       ///< The paper's ideal baseline: the plain II search
                 ///< from MII with unlimited registers; `registers` is
                 ///< ignored.
};

const char *strategyName(Strategy s);

/**
 * Reusable state for one strategy evaluation (all fields optional).
 *
 * The experiment grids of the paper run hundreds of thousands of
 * evaluations, so the batch driver (src/driver) amortizes the per-call
 * costs: scheduler objects are constructed once per worker thread, the
 * MII of each input loop is memoized per machine, and whole (graph,
 * machine, II, scheduler) probe outcomes are memoized in a ScheduleMemo.
 * Without a context the strategies build their own schedulers and
 * compute the MII; results are identical either way.
 */
struct EvalContext
{
    /**
     * Core scheduler to use; must implement the algorithm selected by
     * PipelinerOptions::scheduler (the caller keeps them in sync).
     */
    ModuloScheduler *scheduler = nullptr;

    /** IMS instance for the drivers' safety net. */
    ModuloScheduler *imsFallback = nullptr;

    /** Memoized mii(g, m) of the *input* graph; -1 = not known. */
    int knownMii = -1;

    /**
     * When set, every scheduleAt probe of the strategy drivers is
     * routed through this memo, so repeated (graph, machine, II,
     * scheduler) probes — within one evaluation, e.g. best-of-all's
     * binary search over IIs the spill rounds already tried, and across
     * the whole grid — are scheduled once. Only the work changes.
     */
    ScheduleMemo *memo = nullptr;
};

/** Run the chosen strategy on a loop. */
PipelineResult pipelineLoop(const Ddg &g, const Machine &m, Strategy s,
                            const PipelinerOptions &opts,
                            const EvalContext *ctx = nullptr);

/** The result references the input graph; temporaries would dangle. */
PipelineResult pipelineLoop(Ddg &&, const Machine &, Strategy,
                            const PipelinerOptions &,
                            const EvalContext * = nullptr) = delete;

/** Observer invoked after each spill round (used by the Figure 7 bench). */
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

/**
 * One point of the Figure 4 sweep: the register requirement of the best
 * schedule at exactly this II, or -1 when no scheduler succeeds there.
 * Applies the IMS safety net, so a non-backtracking scheduler's
 * placement failure does not punch a hole into the sweep.
 */
int registersAtIi(const Ddg &g, const Machine &m, int ii,
                  const PipelinerOptions &opts,
                  const EvalContext *ctx = nullptr);

} // namespace swp

#endif // SWP_PIPELINER_PIPELINER_HH
