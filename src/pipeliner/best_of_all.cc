#include "pipeliner/best_of_all.hh"

#include <memory>
#include <optional>
#include <utility>

#include "pipeliner/spill_pipeline.hh"
#include "sched/mii.hh"

namespace swp
{

namespace
{

/** Schedule the original loop at exactly ii; keep it if it fits. */
struct Attempt
{
    Schedule sched;
    AllocationOutcome alloc;
};

std::optional<Attempt>
tryOriginalAt(const Ddg &g, const Machine &m, const PipelinerOptions &opts,
              ModuloScheduler &scheduler, int ii, int *attempts)
{
    ++*attempts;
    auto sched = scheduler.scheduleAt(g, m, ii);
    if (!sched)
        return std::nullopt;
    auto alloc = allocateWithinBudget(analyzeLifetimes(g, *sched),
                                      opts.registers);
    if (!alloc)
        return std::nullopt;
    return Attempt{std::move(*sched), std::move(*alloc)};
}

} // namespace

PipelineResult
bestOfAllStrategy(const Ddg &g, const Machine &m,
                  const PipelinerOptions &opts, const EvalContext *ctx)
{
    PipelineResult spill = spillStrategy(g, m, opts, {}, ctx);
    spill.strategy = "best-of-all";
    if (!spill.success || spill.usedFallback)
        return spill;
    if (spill.spilledLifetimes == 0) {
        // No register pressure problem: the spill result is already the
        // plain schedule of the original loop.
        return spill;
    }

    SchedulerStorage schedStorage;
    ModuloScheduler &scheduler =
        resolveScheduler(ctx, opts.scheduler, schedStorage);
    int attempts = spill.attempts;

    // Test the original loop at the II spilling needed. If it fits
    // there, a schedule at some II <= II_spill without memory traffic
    // beats (or equals) the spill result; binary-search the smallest.
    const int iiSpill = spill.ii();
    auto atSpillIi =
        tryOriginalAt(g, m, opts, scheduler, iiSpill, &attempts);
    if (!atSpillIi) {
        spill.attempts = attempts;
        return spill;
    }

    const int lower = resolveMii(ctx, g, m);
    int lo = lower;
    int hi = iiSpill;
    Attempt best = std::move(*atSpillIi);
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        auto a = tryOriginalAt(g, m, opts, scheduler, mid, &attempts);
        if (a) {
            best = std::move(*a);
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    PipelineResult result;
    result.success = true;
    result.strategy = "best-of-all";
    result.bindInputGraph(g);
    result.sched = std::move(best.sched);
    result.alloc = std::move(best.alloc);
    result.mii = lower;
    result.spilledLifetimes = 0;
    // The returned schedule is a direct schedule of the untransformed
    // loop: one scheduling round, zero spill rounds — not the discarded
    // spill run's count.
    result.rounds = 1;
    result.attempts = attempts;
    return result;
}

} // namespace swp
