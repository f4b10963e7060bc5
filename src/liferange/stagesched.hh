/**
 * @file
 * Stage scheduling: a register-reducing post-pass over modulo
 * schedules, after Eichenberger and Davidson (MICRO-28, 1995), the
 * paper's reference [13].
 *
 * Moving an operation by a whole number of stages (multiples of II)
 * keeps its kernel row and functional unit — the modulo reservation
 * table is untouched — but changes the distances between producers and
 * consumers, and with them the lifetimes. This pass greedily re-stages
 * complex groups (fused members move together) while any move shortens
 * the total lifetime, which tightens MaxLive without costing a single
 * cycle of II.
 *
 * The paper's evaluation uses a register-sensitive scheduler (HRMS), so
 * stage scheduling mostly matters for register-insensitive schedulers
 * like IMS; the ablation_scheduler bench quantifies exactly that.
 */

#ifndef SWP_LIFERANGE_STAGESCHED_HH
#define SWP_LIFERANGE_STAGESCHED_HH

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "sched/schedule.hh"

namespace swp
{

/** Outcome of the stage-scheduling post-pass. */
struct StageSchedResult
{
    Schedule sched;      ///< Improved (or unchanged) schedule.
    int maxLiveBefore = 0;
    int maxLiveAfter = 0;
    int moves = 0;       ///< Stage moves applied.
};

/**
 * Re-stage a complete schedule to reduce its register requirements.
 * The result has the same II, rows and units, validates, and never has
 * a larger MaxLive than the input.
 */
StageSchedResult stageSchedule(const Ddg &g, const Machine &m,
                               const Schedule &sched);

} // namespace swp

#endif // SWP_LIFERANGE_STAGESCHED_HH
