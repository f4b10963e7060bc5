/**
 * @file
 * Shared evaluation context for the strategy drivers.
 *
 * One (loop, strategy, options) evaluation is cheap to set up but the
 * experiment grids of the paper run hundreds of thousands of them, so
 * the batch driver (src/driver) amortizes the per-call costs: scheduler
 * objects are constructed once per worker thread, the MII of
 * each input loop is memoized per machine, and whole (graph, machine,
 * II, scheduler) probe outcomes are memoized in a ScheduleMemo. The
 * strategies accept an optional EvalContext carrying those shared
 * pieces; without one they behave exactly as before (build their own
 * scheduler, compute MII, schedule every probe).
 */

#ifndef SWP_PIPELINER_CONTEXT_HH
#define SWP_PIPELINER_CONTEXT_HH

#include <memory>

#include "sched/mii.hh"
#include "sched/sched_memo.hh"
#include "sched/scheduler.hh"

namespace swp
{

/** Reusable state for one strategy evaluation (all fields optional). */
struct EvalContext
{
    /**
     * Core scheduler to use; must implement the algorithm selected by
     * PipelinerOptions::scheduler (the caller keeps them in sync).
     */
    ModuloScheduler *scheduler = nullptr;

    /** IMS instance for the drivers' backtracking safety net. */
    ModuloScheduler *imsFallback = nullptr;

    /** Memoized mii(g, m) of the *input* graph; -1 = not known. */
    int knownMii = -1;

    /**
     * When set, every scheduleAt probe of the strategy drivers is
     * routed through this memo (see resolveScheduler), so repeated
     * (graph, machine, II, scheduler) probes — within one evaluation,
     * e.g. best-of-all's binary search over IIs the spill rounds
     * already tried, and across the whole grid — are scheduled once.
     * Results are identical with or without it; only the work changes.
     */
    ScheduleMemo *memo = nullptr;
};

/**
 * Per-evaluation scheduler storage for the resolve* helpers: the
 * lazily-built core scheduler (when the context does not provide one)
 * and the memoizing adapter wrapped around whichever core is used.
 */
struct SchedulerStorage
{
    std::unique_ptr<ModuloScheduler> base;
    std::unique_ptr<MemoizedScheduler> memoized;
};

/**
 * Shared resolution: the context-provided scheduler (or a lazily-built
 * `kind` instance kept in `storage`), wrapped in the context's
 * ScheduleMemo when one is present.
 */
inline ModuloScheduler &
resolveWithMemo(const EvalContext *ctx, ModuloScheduler *fromCtx,
                SchedulerKind kind, SchedulerStorage &storage)
{
    ModuloScheduler *core = fromCtx;
    if (!core) {
        if (!storage.base)
            storage.base = makeScheduler(kind);
        core = storage.base.get();
    }
    if (ctx && ctx->memo) {
        storage.memoized =
            std::make_unique<MemoizedScheduler>(*ctx->memo, *core, kind);
        return *storage.memoized;
    }
    return *core;
}

/** The scheduler every probe of this evaluation should go through. */
inline ModuloScheduler &
resolveScheduler(const EvalContext *ctx, SchedulerKind kind,
                 SchedulerStorage &storage)
{
    return resolveWithMemo(ctx, ctx ? ctx->scheduler : nullptr, kind,
                           storage);
}

/** The context's IMS fallback (memo-wrapped like resolveScheduler). */
inline ModuloScheduler &
resolveImsFallback(const EvalContext *ctx, SchedulerStorage &storage)
{
    return resolveWithMemo(ctx, ctx ? ctx->imsFallback : nullptr,
                           SchedulerKind::Ims, storage);
}

/** The memoized MII of the input graph, or compute it. */
inline int
resolveMii(const EvalContext *ctx, const Ddg &g, const Machine &m)
{
    if (ctx && ctx->knownMii >= 0)
        return ctx->knownMii;
    return mii(g, m);
}

} // namespace swp

#endif // SWP_PIPELINER_CONTEXT_HH
