#include "pipeliner/spill_pipeline.hh"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "sched/acyclic.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "spill/insert.hh"
#include "support/diag.hh"

namespace swp
{

PipelineResult
spillStrategy(const Ddg &g, const Machine &m, const PipelinerOptions &opts,
              const SpillRoundObserver &observer, const EvalContext *ctx)
{
    PipelineResult result;
    result.strategy = "spill";

    SchedulerStorage schedStorage;
    ModuloScheduler &scheduler =
        resolveScheduler(ctx, opts.scheduler, schedStorage);

    Ddg work = g;
    int prevIi = 0;

    // Per-round candidate scratch, hoisted out of the round loop so
    // later rounds reuse its capacity.
    std::vector<SpillCandidate> candidates;

    // Rewrite `graph` with the spill code of one round's picks.
    const auto applySpills = [&](Ddg &graph,
                                 const std::vector<SpillCandidate> &picks) {
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
        const int curMii =
            round == 1 ? resolveMii(ctx, g, m) : mii(work, m);
        const int startIi =
            opts.reuseLastIi ? std::max(curMii, prevIi) : curMii;

        IiSearchResult search = searchIiWithImsFallback(
            scheduler, opts.scheduler, ctx, work, m, startIi);
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
        const LifetimeInfo lifetimes = analyzeLifetimes(work, sched);
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
            info.memOps = work.numMemOps();
            info.spilledSoFar = result.spilledLifetimes;
            observer(info);
        }

        if (alloc) {
            result.success = true;
            if (result.spilledLifetimes == 0)
                result.bindInputGraph(g);  // `work` is still the input.
            else
                result.adoptGraph(std::move(work));
            result.sched = std::move(sched);
            result.alloc = std::move(*alloc);
            result.mii = curMii;
            return result;
        }

        OverBudgetRound &kept = overBudget.emplace_back();
        kept.sched = std::move(sched);
        kept.mii = curMii;
        kept.spilled = result.spilledLifetimes;

        spillCandidates(work, lifetimes, opts.spillUses, candidates);
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
        applySpills(work, kept.picks);
        result.spilledLifetimes += int(kept.picks.size());
    }

    // The iteration ended over budget. Local scheduling of the original
    // loop (the Cydra 5 compiler's last resort) is used only when it
    // actually fits the budget or when no modulo schedule exists at
    // all; otherwise the over-budget modulo schedule with the lowest
    // register requirement (the earliest on ties) is kept.
    Schedule acyclicSched = scheduleAcyclic(g, m);
    AllocationOutcome acyclicAlloc =
        allocateLoop(g, acyclicSched, opts.registers);
    if (!overBudget.empty() && !acyclicAlloc.fits) {
        // Rebuild each round's graph by replaying the earlier rounds'
        // spills on the input, and allocate its schedule exactly.
        Ddg replay = g;
        OverBudgetRound *best = nullptr;
        std::optional<Ddg> bestGraph;
        AllocationOutcome bestAlloc;
        for (OverBudgetRound &r : overBudget) {
            AllocationOutcome alloc =
                allocateLoop(replay, r.sched, opts.registers);
            if (!best || alloc.regsRequired < bestAlloc.regsRequired) {
                best = &r;
                bestGraph = replay;
                bestAlloc = std::move(alloc);
            }
            applySpills(replay, r.picks);
        }
        if (best->spilled == 0)
            result.bindInputGraph(g);
        else
            result.adoptGraph(std::move(*bestGraph));
        result.sched = std::move(best->sched);
        result.alloc = std::move(bestAlloc);
        result.mii = best->mii;
        result.spilledLifetimes = best->spilled;
        return result;
    }
    result.usedFallback = true;
    result.bindInputGraph(g);
    result.sched = std::move(acyclicSched);
    result.alloc = std::move(acyclicAlloc);
    result.mii = resolveMii(ctx, g, m);
    result.success = result.alloc.fits;
    return result;
}

} // namespace swp
