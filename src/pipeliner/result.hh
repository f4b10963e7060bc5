/**
 * @file
 * Result of register-constrained pipelining.
 */

#ifndef SWP_PIPELINER_RESULT_HH
#define SWP_PIPELINER_RESULT_HH

#include <memory>
#include <string>

#include "ir/ddg.hh"
#include "regalloc/rotalloc.hh"
#include "sched/schedule.hh"
#include "support/diag.hh"

namespace swp
{

/**
 * Outcome of one driver strategy on one loop.
 *
 * The result does not copy the input graph: when the strategy returns a
 * schedule of the unmodified loop it only references the caller's graph
 * (which must outlive the result — the rvalue overloads of the driver
 * entry points are deleted to enforce this), and it owns a graph only
 * when spilling actually rewrote the loop. This keeps whole-suite batch
 * evaluation (src/driver) free of per-job Ddg copies.
 */
struct PipelineResult
{
    /** The schedule fits the register budget. */
    bool success = false;

    /** The acyclic (local scheduling) fallback was used. */
    bool usedFallback = false;

    /** Final schedule (valid for `graph()`). */
    Schedule sched;

    /** Register allocation of the final schedule. */
    AllocationOutcome alloc;

    /** MII of the final graph. */
    int mii = 0;

    /** Lifetimes spilled in total. */
    int spilledLifetimes = 0;

    /** Rescheduling rounds (spilling) or IIs tried (increase-II). */
    int rounds = 0;

    /** Total (II, schedule) attempts, the compile-effort proxy. */
    int attempts = 0;

    /** Strategy label for reports. */
    std::string strategy;

    /** The (possibly spill-transformed) graph the schedule refers to. */
    const Ddg &
    graph() const
    {
        SWP_ASSERT(owned_ || input_, "PipelineResult has no graph bound");
        return owned_ ? *owned_ : *input_;
    }

    /** True when the result owns a spill-transformed copy of the loop. */
    bool ownsGraph() const { return owned_ != nullptr; }

    /** The schedule refers to the caller's unmodified graph. */
    void
    bindInputGraph(const Ddg &g)
    {
        input_ = &g;
        owned_.reset();
    }

    /** The schedule refers to a transformed graph the result owns. */
    void
    adoptGraph(Ddg g)
    {
        owned_ = std::make_shared<const Ddg>(std::move(g));
        input_ = nullptr;
    }

    int ii() const { return sched.ii(); }

    /** Memory operations executed per iteration. */
    int memOpsPerIteration() const { return graph().numMemOps(); }

  private:
    const Ddg *input_ = nullptr;
    std::shared_ptr<const Ddg> owned_;
};

} // namespace swp

#endif // SWP_PIPELINER_RESULT_HH
