#include "pipeliner/pipeliner.hh"

#include <limits>
#include <memory>

#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "support/diag.hh"

namespace swp
{

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::IncreaseII: return "increase-II";
      case Strategy::Spill: return "spill";
      case Strategy::BestOfAll: return "best-of-all";
      case Strategy::Ideal: return "ideal";
    }
    SWP_PANIC("unknown strategy ", int(s));
}

PipelineResult
pipelineLoop(const Ddg &g, const Machine &m, Strategy s,
             const PipelinerOptions &opts, const EvalContext *ctx)
{
    switch (s) {
      case Strategy::IncreaseII:
        return increaseIiStrategy(g, m, opts, ctx);
      case Strategy::Spill:
        return spillStrategy(g, m, opts, {}, ctx);
      case Strategy::BestOfAll:
        return bestOfAllStrategy(g, m, opts, ctx);
      case Strategy::Ideal:
        return pipelineIdeal(g, m, opts.scheduler, ctx);
    }
    SWP_PANIC("unknown strategy ", int(s));
}

PipelineResult
pipelineIdeal(const Ddg &g, const Machine &m, SchedulerKind kind,
              const EvalContext *ctx)
{
    PipelineResult result;
    result.strategy = "ideal";
    result.bindInputGraph(g);
    result.mii = resolveMii(ctx, g, m);

    SchedulerStorage schedStorage, imsStorage;
    ModuloScheduler &scheduler = resolveScheduler(ctx, kind, schedStorage);
    IiSearchResult search = searchIi(scheduler, g, m, result.mii);
    result.attempts = search.attempts;
    if (!search.sched && kind != SchedulerKind::Ims) {
        // Same safety net as the spilling driver: IMS backtracks
        // through placements a non-backtracking order cannot finish.
        ModuloScheduler &ims = resolveImsFallback(ctx, imsStorage);
        search = searchIi(ims, g, m, result.mii);
        result.attempts += search.attempts;
    }
    SWP_ASSERT(search.sched.has_value(),
               "no schedule found for loop '", g.name(),
               "' at any II — scheduler bug");
    result.sched = std::move(*search.sched);
    result.alloc = allocateLoop(g, result.sched,
                                std::numeric_limits<int>::max() / 2,
                                FitStrategy::EndFit);
    result.success = true;
    return result;
}

} // namespace swp
