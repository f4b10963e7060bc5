/**
 * @file
 * Iterative Modulo Scheduling (IMS).
 *
 * Reimplementation of B. R. Rau's scheduler (MICRO-27, 1994): a
 * backtracking modulo scheduler that picks the highest-priority
 * unscheduled operation (priority = height in the dependence graph),
 * places it in the first conflict-free slot of its II-wide window, and
 * when no slot exists forces a placement, evicting the operations it
 * displaces. A budget bounds the total number of placements.
 *
 * IMS is register-insensitive; the paper uses a scheduler of this class
 * in [21] to show the constrained-scheduling heuristics are independent
 * of the core scheduler, and so do we. Complex groups are scheduled and
 * evicted atomically.
 */

#ifndef SWP_SCHED_IMS_HH
#define SWP_SCHED_IMS_HH

#include "sched/scheduler.hh"
#include "sched/workspace.hh"

namespace swp
{

/** Rau's iterative modulo scheduler; see file comment. */
class ImsScheduler : public ModuloScheduler
{
  public:
    std::string name() const override { return "IMS"; }

    std::optional<Schedule> scheduleAt(const Ddg &g, const Machine &m,
                                       int ii) override;

  private:
    /** Scratch reused across probes; carries no cross-probe state. */
    SchedWorkspace ws_;
};

} // namespace swp

#endif // SWP_SCHED_IMS_HH
