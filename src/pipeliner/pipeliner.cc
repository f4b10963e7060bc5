#include "pipeliner/pipeliner.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sched/acyclic.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "sched/sched_memo.hh"
#include "spill/insert.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

/** A schedule of the unspilled loop that fits the budget. */
struct Fit
{
    Schedule sched;
    AllocationOutcome alloc;
};

/**
 * One evaluation's resolved scheduling state, shared by every phase of
 * a strategy: the core scheduler and the lazily built IMS safety net,
 * each routed through the context's ScheduleMemo when there is one,
 * and the input loop's MII, known or computed once.
 */
class Job
{
  public:
    Job(const Ddg &input, const Machine &m, SchedulerKind kind,
        const EvalContext *ctx)
        : input_(input), m_(m), kind_(kind),
          memo_(ctx ? ctx->memo : nullptr),
          imsGiven_(ctx ? ctx->imsFallback : nullptr),
          mii_(ctx ? ctx->knownMii : -1)
    {
        core_ = resolve(ctx ? ctx->scheduler : nullptr, kind, ownedCore_,
                        memoCore_);
    }

    Job(const Job &) = delete;
    Job &operator=(const Job &) = delete;

    const Ddg &input() const { return input_; }
    const Machine &machine() const { return m_; }

    int
    inputMii()
    {
        if (mii_ < 0)
            mii_ = mii(input_, m_);
        return mii_;
    }

    /**
     * searchIi from `startIi` to `maxIi` (0: searchIi's default bound)
     * on the core scheduler. If that finds no schedule and the core is
     * not IMS, the same search runs again on IMS: the safety net. The
     * attempts of both searches are summed.
     */
    IiSearchResult
    search(const Ddg &g, int startIi, int maxIi = 0)
    {
        IiSearchResult found = searchIi(*core_, g, m_, startIi, maxIi);
        if (found.sched || kind_ == SchedulerKind::Ims)
            return found;
        if (!ims_)
            ims_ = resolve(imsGiven_, SchedulerKind::Ims, ownedIms_,
                           memoIms_);
        const int coreAttempts = found.attempts;
        found = searchIi(*ims_, g, m_, startIi, maxIi);
        found.attempts += coreAttempts;
        return found;
    }

    /**
     * Schedule the input loop at exactly `ii` on the core scheduler
     * alone and keep the schedule if it fits `registers`. One attempt.
     */
    std::optional<Fit>
    fitsUnspilled(int ii, int registers, int &attempts)
    {
        ++attempts;
        std::optional<Schedule> sched = core_->scheduleAt(input_, m_, ii);
        if (!sched)
            return std::nullopt;
        std::optional<AllocationOutcome> alloc =
            allocateWithinBudget(analyzeLifetimes(input_, *sched), registers);
        if (!alloc)
            return std::nullopt;
        return Fit{std::move(*sched), std::move(*alloc)};
    }

  private:
    /** `given`, or an owned `kind` instance, memo-wrapped if asked. */
    ModuloScheduler *
    resolve(ModuloScheduler *given, SchedulerKind kind,
            std::unique_ptr<ModuloScheduler> &owned,
            std::optional<MemoizedScheduler> &memoized)
    {
        if (!given) {
            owned = makeScheduler(kind);
            given = owned.get();
        }
        if (!memo_)
            return given;
        return &memoized.emplace(*memo_, *given, kind);
    }

    const Ddg &input_;
    const Machine &m_;
    SchedulerKind kind_;
    ScheduleMemo *memo_;
    ModuloScheduler *imsGiven_;
    int mii_;

    ModuloScheduler *core_ = nullptr;
    std::unique_ptr<ModuloScheduler> ownedCore_;
    std::optional<MemoizedScheduler> memoCore_;

    ModuloScheduler *ims_ = nullptr;
    std::unique_ptr<ModuloScheduler> ownedIms_;
    std::optional<MemoizedScheduler> memoIms_;
};

/**
 * Local (acyclic) scheduling of the input loop, the Cydra 5 compiler's
 * last resort: `result` takes `acyclic` and its allocation.
 */
void
useAcyclicFallback(Job &job, PipelineResult &result, Schedule acyclic,
                   AllocationOutcome alloc)
{
    result.usedFallback = true;
    result.bindInputGraph(job.input());
    result.sched = std::move(acyclic);
    result.alloc = std::move(alloc);
    result.mii = job.inputMii();
    result.success = result.alloc.fits;
}

PipelineResult
ideal(Job &job)
{
    const Ddg &g = job.input();
    PipelineResult result;
    result.bindInputGraph(g);
    result.mii = job.inputMii();

    IiSearchResult search = job.search(g, result.mii);
    result.attempts = search.attempts;
    SWP_ASSERT(search.sched.has_value(),
               "no schedule found for loop '", g.name(),
               "' at any II — scheduler bug");
    result.sched = std::move(*search.sched);
    result.alloc =
        allocateLoop(g, result.sched, std::numeric_limits<int>::max() / 2);
    result.success = true;
    return result;
}

PipelineResult
increaseIi(Job &job, const PipelinerOptions &opts)
{
    const Ddg &g = job.input();
    PipelineResult result;
    result.bindInputGraph(g);
    result.mii = job.inputMii();

    // Beyond the single-stage schedule length, increasing II cannot
    // reduce registers any further: only distance components and
    // invariants remain, and those are II-independent or grow with it.
    Schedule acyclic = scheduleAcyclic(g, job.machine());
    const int limit = acyclic.ii();

    for (int ii = result.mii; ii <= limit; ++ii) {
        ++result.rounds;
        if (std::optional<Fit> fit =
                job.fitsUnspilled(ii, opts.registers, result.attempts)) {
            result.success = true;
            result.sched = std::move(fit->sched);
            result.alloc = std::move(fit->alloc);
            return result;
        }
    }

    // Divergent.
    AllocationOutcome alloc = allocateLoop(g, acyclic, opts.registers);
    useAcyclicFallback(job, result, std::move(acyclic), std::move(alloc));
    return result;
}

PipelineResult
spill(Job &job, const PipelinerOptions &opts,
      const SpillRoundObserver &observer)
{
    const Ddg &g = job.input();
    const Machine &m = job.machine();
    PipelineResult result;

    // The loop as rewritten by the spills so far. It stays empty, and
    // the rounds read the input, until the first picks are applied, so
    // a job that fits unspilled copies no graph.
    std::optional<Ddg> work;
    const auto cur = [&]() -> const Ddg & { return work ? *work : g; };
    int prevIi = 0;

    // Per-round candidate scratch, hoisted out of the round loop so
    // later rounds reuse its capacity.
    std::vector<SpillCandidate> candidates;

    // Rewrite the working graph with the spill code of one round's picks.
    const auto applySpills = [&](const std::vector<SpillCandidate> &picks) {
        if (!work)
            work.emplace(g);
        Ddg &graph = *work;
        for (const SpillCandidate &pick : picks)
            insertSpill(graph, m, pick);
        if (!opts.fuseSpillOps) {
            // Ablation: drop the complex-operation constraint; spill
            // code is scheduled like any other operation.
            for (EdgeId e = 0; e < graph.numEdges(); ++e) {
                if (graph.edge(e).alive)
                    graph.edge(e).nonSpillable = false;
            }
        }
    };

    // Every over-budget round, kept so that exhausting the rounds or
    // the candidates does not discard valid scheduling work. Only the
    // fit test runs per round; the exact register counts that pick the
    // best of them are computed only if the iteration ends unfit. A
    // round keeps the picks spilled after it rather than a snapshot of
    // its graph: the graphs are rebuilt from the input only in that
    // case, so a run that ends fitting copies no graph.
    struct OverBudgetRound
    {
        Schedule sched;
        int mii = 0;
        int spilled = 0;
        std::vector<SpillCandidate> picks;
    };
    std::vector<OverBudgetRound> overBudget;

    for (int round = 1; round <= opts.maxSpillRounds; ++round) {
        const int curMii = round == 1 ? job.inputMii() : mii(cur(), m);
        const int startIi =
            opts.reuseLastIi ? std::max(curMii, prevIi) : curMii;

        IiSearchResult search = job.search(cur(), startIi);
        result.attempts += search.attempts;
        result.rounds = round;
        if (!search.sched) {
            // No scheduler could place the transformed loop at any II;
            // keep the best earlier round (or fall back) below.
            break;
        }

        Schedule sched = std::move(*search.sched);
        prevIi = sched.ii();
        // One lifetime analysis serves the fit test and spill selection.
        const LifetimeInfo lifetimes = analyzeLifetimes(cur(), sched);
        std::optional<AllocationOutcome> alloc =
            allocateWithinBudget(lifetimes, opts.registers);

        if (observer) {
            SpillRoundInfo info;
            info.round = round;
            info.ii = sched.ii();
            info.mii = curMii;
            info.regsRequired =
                alloc ? alloc->regsRequired
                      : allocateLoop(lifetimes, opts.registers).regsRequired;
            info.memOps = cur().numMemOps();
            info.spilledSoFar = result.spilledLifetimes;
            observer(info);
        }

        if (alloc) {
            result.success = true;
            if (work)
                result.adoptGraph(std::move(*work));
            else
                result.bindInputGraph(g);
            result.sched = std::move(sched);
            result.alloc = std::move(*alloc);
            result.mii = curMii;
            return result;
        }

        OverBudgetRound &kept = overBudget.emplace_back();
        kept.sched = std::move(sched);
        kept.mii = curMii;
        kept.spilled = result.spilledLifetimes;

        spillCandidates(cur(), lifetimes, opts.spillUses, candidates);
        if (candidates.empty()) {
            // Nothing left to spill: every lifetime is already a spill
            // artifact. Keep the best schedule seen (below).
            break;
        }

        if (opts.multiSelect) {
            selectMultiple(candidates, opts.heuristic, lifetimes,
                           opts.registers, kept.picks);
        } else if (auto one = selectOne(candidates, opts.heuristic)) {
            kept.picks.push_back(*one);
        }
        SWP_ASSERT(!kept.picks.empty(), "spill selection returned nothing");
        applySpills(kept.picks);
        result.spilledLifetimes += int(kept.picks.size());
    }

    // The iteration ended over budget. The acyclic fallback is used
    // only when it actually fits the budget or when no modulo schedule
    // exists at all; otherwise the over-budget modulo schedule with the
    // lowest register requirement (the earliest on ties) is kept.
    Schedule acyclicSched = scheduleAcyclic(g, m);
    AllocationOutcome acyclicAlloc =
        allocateLoop(g, acyclicSched, opts.registers);
    if (overBudget.empty() || acyclicAlloc.fits) {
        useAcyclicFallback(job, result, std::move(acyclicSched),
                           std::move(acyclicAlloc));
        return result;
    }

    // Rebuild each round's graph by replaying the earlier rounds'
    // spills on the input, and allocate its schedule exactly. No round
    // reads the last round's picks, so they are not applied.
    work.reset();
    OverBudgetRound *best = nullptr;
    std::optional<Ddg> bestGraph;
    AllocationOutcome bestAlloc;
    for (OverBudgetRound &r : overBudget) {
        AllocationOutcome alloc =
            allocateLoop(cur(), r.sched, opts.registers);
        if (!best || alloc.regsRequired < bestAlloc.regsRequired) {
            best = &r;
            bestGraph = work;
            bestAlloc = std::move(alloc);
        }
        if (&r != &overBudget.back())
            applySpills(r.picks);
    }
    if (bestGraph)
        result.adoptGraph(std::move(*bestGraph));
    else
        result.bindInputGraph(g);
    result.sched = std::move(best->sched);
    result.alloc = std::move(bestAlloc);
    result.mii = best->mii;
    result.spilledLifetimes = best->spilled;
    return result;
}

PipelineResult
bestOfAll(Job &job, const PipelinerOptions &opts)
{
    PipelineResult spilled = spill(job, opts, {});
    // Without spill code the spill result already is the plain
    // schedule of the original loop.
    if (!spilled.success || spilled.usedFallback ||
        spilled.spilledLifetimes == 0)
        return spilled;

    // Test the original loop at the II spilling needed. If it fits
    // there, a schedule at some II <= II_spill without memory traffic
    // beats (or equals) the spill result; binary-search the smallest.
    int hi = spilled.ii();
    std::optional<Fit> best =
        job.fitsUnspilled(hi, opts.registers, spilled.attempts);
    if (!best)
        return spilled;

    int lo = job.inputMii();
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (std::optional<Fit> fit =
                job.fitsUnspilled(mid, opts.registers, spilled.attempts)) {
            best = std::move(fit);
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    // The returned schedule is a direct schedule of the untransformed
    // loop: one scheduling round, zero spill rounds — not the discarded
    // spill run's count.
    spilled.bindInputGraph(job.input());
    spilled.sched = std::move(best->sched);
    spilled.alloc = std::move(best->alloc);
    spilled.mii = job.inputMii();
    spilled.spilledLifetimes = 0;
    spilled.rounds = 1;
    return spilled;
}

} // namespace

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
    Job job(g, m, opts.scheduler, ctx);
    switch (s) {
      case Strategy::IncreaseII: return increaseIi(job, opts);
      case Strategy::Spill: return spill(job, opts, {});
      case Strategy::BestOfAll: return bestOfAll(job, opts);
      case Strategy::Ideal: return ideal(job);
    }
    SWP_PANIC("unknown strategy ", int(s));
}

PipelineResult
spillStrategy(const Ddg &g, const Machine &m, const PipelinerOptions &opts,
              const SpillRoundObserver &observer, const EvalContext *ctx)
{
    Job job(g, m, opts.scheduler, ctx);
    return spill(job, opts, observer);
}

int
registersAtIi(const Ddg &g, const Machine &m, int ii,
              const PipelinerOptions &opts, const EvalContext *ctx)
{
    Job job(g, m, opts.scheduler, ctx);
    const IiSearchResult search = job.search(g, ii, ii);
    if (!search.sched)
        return -1;
    return allocateLoop(g, *search.sched, opts.registers).regsRequired;
}

} // namespace swp
