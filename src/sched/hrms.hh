/**
 * @file
 * Hypernode Reduction Modulo Scheduling (HRMS).
 *
 * Reimplementation of the paper's core scheduler [22] (Llosa, Valero,
 * Ayguade, Gonzalez, MICRO-28 1995). HRMS is a register-sensitive,
 * non-backtracking modulo scheduler in two phases:
 *
 *  1. Pre-ordering. Nodes are ordered so that when a node is placed, its
 *     already-placed neighbours are (almost always) only predecessors or
 *     only successors. Recurrences are ordered first, most critical
 *     (highest RecMII) first, together with the nodes on paths between
 *     them; remaining nodes are absorbed in alternating
 *     predecessor/successor waves around the growing "hypernode".
 *
 *  2. Placement. Each node is scheduled as close as possible to its
 *     already-placed neighbours: ascending from its earliest start when
 *     only predecessors are placed, descending from its latest start
 *     when only successors are placed, and inside [early, late] for
 *     recurrence nodes. This keeps lifetimes short without backtracking.
 *
 * This implementation schedules complex groups (Section 4.3 fused spill
 * operations) atomically, which the register-constrained spilling driver
 * relies on.
 */

#ifndef SWP_SCHED_HRMS_HH
#define SWP_SCHED_HRMS_HH

#include "sched/scheduler.hh"
#include "sched/workspace.hh"

namespace swp
{

/** HRMS scheduler; see file comment. */
class HrmsScheduler : public ModuloScheduler
{
  public:
    std::string name() const override { return "HRMS"; }

    std::optional<Schedule> scheduleAt(const Ddg &g, const Machine &m,
                                       int ii) override;

  protected:
    /** Scratch reused across probes; carries no cross-probe state.
        After a probe that got past the group feasibility check,
        ws_.order holds its pre-ordering: group indices in scheduling
        order (see GroupSet for the group numbering). */
    SchedWorkspace ws_;
};

} // namespace swp

#endif // SWP_SCHED_HRMS_HH
