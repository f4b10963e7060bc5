#include "pipeliner/increase_ii.hh"

#include <memory>

#include "sched/acyclic.hh"
#include "sched/mii.hh"
#include "support/diag.hh"

namespace swp
{

PipelineResult
increaseIiStrategy(const Ddg &g, const Machine &m,
                   const PipelinerOptions &opts, const EvalContext *ctx)
{
    PipelineResult result;
    result.strategy = "increase-II";
    result.bindInputGraph(g);
    result.mii = resolveMii(ctx, g, m);

    SchedulerStorage schedStorage;
    ModuloScheduler &scheduler =
        resolveScheduler(ctx, opts.scheduler, schedStorage);

    // Beyond the single-stage schedule length, increasing II cannot
    // reduce registers any further: only distance components and
    // invariants remain, and those are II-independent or grow with it.
    const Schedule acyclic = scheduleAcyclic(g, m);
    const int limit = acyclic.ii();

    for (int ii = result.mii; ii <= limit; ++ii) {
        ++result.attempts;
        ++result.rounds;
        auto sched = scheduler.scheduleAt(g, m, ii);
        if (!sched)
            continue;
        auto alloc = allocateWithinBudget(analyzeLifetimes(g, *sched),
                                          opts.registers);
        if (alloc) {
            result.success = true;
            result.sched = std::move(*sched);
            result.alloc = std::move(*alloc);
            return result;
        }
    }

    // Divergent: fall back to local (acyclic) scheduling.
    result.usedFallback = true;
    result.sched = acyclic;
    result.alloc = allocateLoop(g, acyclic, opts.registers);
    result.success = result.alloc.fits;
    return result;
}

int
registersAtIi(const Ddg &g, const Machine &m, int ii,
              const PipelinerOptions &opts, const EvalContext *ctx)
{
    // The strategy drivers' IMS safety net at this one II, so the sweep
    // reports the points HRMS cannot place rather than holes.
    SchedulerStorage schedStorage;
    const IiSearchResult search = searchIiWithImsFallback(
        resolveScheduler(ctx, opts.scheduler, schedStorage), opts.scheduler,
        ctx, g, m, ii, ii);
    if (!search.sched)
        return -1;
    const AllocationOutcome alloc =
        allocateLoop(g, *search.sched, opts.registers);
    return alloc.regsRequired;
}

} // namespace swp
