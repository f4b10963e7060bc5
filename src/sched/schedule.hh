/**
 * @file
 * The result of modulo scheduling: an issue cycle and functional unit for
 * every operation, at a given initiation interval.
 */

#ifndef SWP_SCHED_SCHEDULE_HH
#define SWP_SCHED_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"

namespace swp
{

/**
 * A (possibly partial) modulo schedule.
 *
 * Each scheduled node has an absolute issue time (cycle within the
 * flat schedule of one iteration; may be negative while the scheduler
 * works bidirectionally) and the index of the functional unit it
 * executes on within its unit class. The kernel row of a node is
 * floorMod(time, II) and its stage floorDiv(time, II).
 */
class Schedule
{
  public:
    Schedule() = default;
    Schedule(int ii, int num_nodes);

    int ii() const { return ii_; }
    int numNodes() const { return int(time_.size()); }

    bool scheduled(NodeId n) const { return time_[std::size_t(n)] != unset; }
    int time(NodeId n) const { return time_[std::size_t(n)]; }
    int unit(NodeId n) const { return unit_[std::size_t(n)]; }

    void
    set(NodeId n, int t, int u)
    {
        time_[std::size_t(n)] = t;
        unit_[std::size_t(n)] = u;
    }

    void
    clear(NodeId n)
    {
        time_[std::size_t(n)] = unset;
        unit_[std::size_t(n)] = -1;
    }

    bool complete() const;

    /** Kernel row of a node: floorMod(time, II). */
    int row(NodeId n) const { return floorMod(time(n), ii_); }

    /** Pipeline stage of a node: floorDiv(time, II). */
    int stage(NodeId n) const { return floorDiv(time(n), ii_); }

    /** Number of stages (SC); schedule must be complete and normalized. */
    int stageCount() const;

    /** Smallest issue time over scheduled nodes. */
    int minTime() const;

    /** Shift all times so the earliest is cycle 0. */
    void normalize();

    /** Mathematical floored modulus (handles negative times). */
    static int
    floorMod(int a, int m)
    {
        const int r = a % m;
        return r < 0 ? r + m : r;
    }

    /** Mathematical floored division (handles negative times). */
    static int
    floorDiv(int a, int m)
    {
        return (a - floorMod(a, m)) / m;
    }

  private:
    static constexpr int unset = INT32_MIN;

    int ii_ = 0;
    std::vector<int> time_;
    std::vector<int> unit_;
};

/**
 * Check that a complete schedule obeys every dependence, fuses
 * non-spillable edges at their exact offset, and never oversubscribes a
 * functional unit (including non-pipelined occupancy).
 *
 * @param g    The loop.
 * @param m    The machine.
 * @param s    Complete schedule for g.
 * @param why  When non-null, receives the first violation found.
 */
bool validateSchedule(const Ddg &g, const Machine &m, const Schedule &s,
                      std::string *why = nullptr);

/** Render the flat schedule and kernel as text (for examples/debugging). */
std::string formatSchedule(const Ddg &g, const Machine &m,
                           const Schedule &s);

} // namespace swp

#endif // SWP_SCHED_SCHEDULE_HH
