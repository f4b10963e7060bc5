/**
 * @file
 * Options controlling register-constrained pipelining.
 */

#ifndef SWP_PIPELINER_OPTIONS_HH
#define SWP_PIPELINER_OPTIONS_HH

#include "sched/scheduler.hh"
#include "spill/select.hh"

namespace swp
{

/** Knobs for the register-constrained pipelining drivers. */
struct PipelinerOptions
{
    /** Core modulo scheduler (the techniques are scheduler-agnostic). */
    SchedulerKind scheduler = SchedulerKind::Hrms;

    /** Register file size the schedule must fit in. */
    int registers = 32;

    /** Lifetime-selection heuristic for spilling (Section 4.1). */
    SpillHeuristic heuristic = SpillHeuristic::MaxLTOverTraf;

    /**
     * Spill several lifetimes per rescheduling round, selected with the
     * optimistic MaxLive estimate (Section 4.5).
     */
    bool multiSelect = false;

    /**
     * Also consider spilling single *uses* (the Section 6 "future
     * work" extension): the latest use of a multi-use value is served
     * from memory while the register copy keeps feeding the others.
     * The paper predicts little gain because most values have one use;
     * the ablation_spill_uses bench quantifies that prediction.
     */
    bool spillUses = false;

    /**
     * Start each round's II search at max(MII, previous II) instead of
     * MII ("last II tried" pruning, Section 4.5).
     */
    bool reuseLastIi = false;

    /** Safety bound on spill/reschedule rounds. */
    int maxSpillRounds = 256;

    /**
     * Ablation switch: schedule spill loads/stores as ordinary
     * operations instead of fusing them with their consumers/producers
     * into complex operations. Section 4.3 predicts (and the
     * ablation_fusion bench confirms) that without fusion the scheduler
     * can re-grow the spilled lifetimes and the iteration may not
     * converge. Non-spillable *value* marking stays active either way,
     * so the deadlock of re-spilling spill artifacts cannot occur.
     */
    bool fuseSpillOps = true;
};

} // namespace swp

#endif // SWP_PIPELINER_OPTIONS_HH
