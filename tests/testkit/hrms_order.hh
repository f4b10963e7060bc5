/**
 * @file
 * The HRMS pre-ordering as a real probe computed it, for tests that
 * check or pin the order itself.
 */

#ifndef SWP_TESTKIT_HRMS_ORDER_HH
#define SWP_TESTKIT_HRMS_ORDER_HH

#include <vector>

#include "sched/hrms.hh"

namespace swp
{

/** An HRMS scheduler whose last probe's pre-ordering can be read. */
class OrderedHrms : public HrmsScheduler
{
  public:
    /**
     * The group indices of the last scheduleAt in scheduling order
     * (see GroupSet for the numbering), whether or not placement then
     * succeeded. Only valid after a probe that got past the group
     * feasibility check, which every graph without fused edges does.
     */
    const std::vector<int> &lastOrder() const { return ws_.order; }
};

} // namespace swp

#endif // SWP_TESTKIT_HRMS_ORDER_HH
