/**
 * @file
 * Ablation: register allocation strategy.
 *
 * Two questions:
 *  (1) How close do the circular-packing strategies (end-fit,
 *      first-fit, best-fit x adjacency/length orderings) come to the
 *      MaxLive lower bound? Rau et al. (PLDI 1992) report end-fit with
 *      adjacency ordering within MaxLive+1 almost always — the paper's
 *      stated basis for approximating registers by MaxLive.
 *  (2) What does the rotating register file buy over software-only
 *      renaming (modulo variable expansion)?
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hh"
#include "regalloc/mvealloc.hh"
#include "sched/mii.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace
{

using namespace swp;
using namespace swp::benchutil;

void
runAblation(benchmark::State &state)
{
    const auto &suite = evaluationSuite();
    const Machine m = benchMachine();

    for (auto _ : state) {
        // Schedule everything once (unconstrained) and collect
        // lifetimes.
        SuiteRunner &runner = suiteRunner();
        std::vector<BatchJob> jobs;
        for (std::size_t i = 0; i < suite.size(); ++i)
            jobs.push_back(variantJob(int(i), Variant::Ideal, 0));
        const auto results =
            runner.run(suite, m, jobs, benchRunOptions());

        std::vector<LifetimeInfo> infos(suite.size());
        runner.parallelFor(suite.size(), [&](std::size_t i) {
            infos[i] = analyzeLifetimes(suite[i].graph, results[i].sched);
        });

        Table strat({"strategy", "ordering", "= MaxLive", "+1", "+2",
                     ">+2", "total extra regs"});
        for (const FitStrategy fit :
             {FitStrategy::EndFit, FitStrategy::FirstFit,
              FitStrategy::BestFit}) {
            for (const AllocOrder order :
                 {AllocOrder::Adjacency, AllocOrder::DescendingLength}) {
                int exact = 0, plus1 = 0, plus2 = 0, more = 0;
                long extra = 0;
                for (const LifetimeInfo &info : infos) {
                    const int regs = minRotatingRegs(info, fit, order);
                    const int gap = regs - info.maxLive;
                    exact += gap == 0;
                    plus1 += gap == 1;
                    plus2 += gap == 2;
                    more += gap > 2;
                    extra += gap;
                }
                strat.row()
                    .add(fitStrategyName(fit))
                    .add(order == AllocOrder::Adjacency ? "adjacency"
                                                        : "length")
                    .add(exact)
                    .add(plus1)
                    .add(plus2)
                    .add(more)
                    .add(extra);
            }
        }
        std::cout << "\nAblation (1): rotating allocation vs the "
                     "MaxLive bound over " << suite.size()
                  << " unconstrained schedules (P2L4)\n";
        strat.print(std::cout);
        recordTable("packing_vs_maxlive", strat);

        // MVE vs rotating.
        long rotTotal = 0, mveTotal = 0, mveWorse = 0;
        int maxGap = 0;
        for (const LifetimeInfo &info : infos) {
            const int rot = minRotatingRegs(info);
            const int mve = allocateMve(info).registers;
            rotTotal += rot;
            mveTotal += mve;
            mveWorse += mve > rot;
            maxGap = std::max(maxGap, mve - rot);
        }
        std::cout << "\nAblation (2): rotating file vs modulo variable "
                     "expansion\n";
        // rotTotal is 0 on an empty suite; print +0.0% rather than a
        // 0/0 NaN.
        std::cout << strprintf(
            "total rotating regs: %ld, total MVE regs: %ld (+%.1f%%); "
            "MVE needs more on %ld loops (worst gap %d regs)\n",
            rotTotal, mveTotal,
            rotTotal ? 100.0 * double(mveTotal - rotTotal) /
                           double(rotTotal)
                     : 0.0,
            mveWorse, maxGap);
        recordMetric("rotating_regs_total", double(rotTotal));
        recordMetric("mve_regs_total", double(mveTotal));
        recordMetric("mve_worse_loops", double(mveWorse));
        recordMetric("mve_worst_gap", double(maxGap));
    }
}

BENCHMARK(runAblation)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("ablation_allocator");
