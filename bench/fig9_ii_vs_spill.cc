/**
 * @file
 * Figure 9: increase-II versus spilling versus their combination, on
 * the subset of loops that (1) need a register reduction and (2)
 * converge under increase-II. Total execution cycles per configuration
 * for 64 and 32 registers.
 *
 * Expected shape: spilling wins on average; "best of all" (the Section
 * 5 combination) is never worse than spilling alone and recovers the
 * few loops where increase-II happens to be the better choice.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hh"
#include "support/table.hh"

namespace
{

using namespace swp;
using namespace swp::benchutil;

void
runFig9(benchmark::State &state)
{
    const auto &suite = evaluationSuite();

    for (auto _ : state) {
        Table table({"config", "regs", "subset", "increase-II(1e9)",
                     "spill(1e9)", "best-of-all(1e9)",
                     "spill-wins", "incII-wins"});
        for (const int registers : {64, 32}) {
            for (const Machine &m : evaluationMachines()) {
                // Stage 1: increase-II over the whole suite; the subset
                // is the loops that needed a reduction (rounds > 1
                // means the first II failed the budget) and converged.
                std::vector<BatchJob> incrJobs;
                for (std::size_t i = 0; i < suite.size(); ++i)
                    incrJobs.push_back(variantJob(
                        int(i), Variant::IncreaseIi, registers));
                const auto incr = suiteRunner().run(
                    suite, m, incrJobs, benchRunOptions());

                std::vector<int> candidates;
                for (std::size_t i = 0; i < suite.size(); ++i) {
                    const PipelineResult &r = incr[i];
                    if (!r.usedFallback && r.success && r.rounds > 1)
                        candidates.push_back(int(i));
                }

                // Stage 2: spilling on the candidate subset.
                std::vector<BatchJob> spillJobs;
                for (const int i : candidates)
                    spillJobs.push_back(variantJob(
                        i, Variant::MaxLtTrafMultiLastIi, registers));
                const auto spills = suiteRunner().run(
                    suite, m, spillJobs, benchRunOptions());

                // Stage 3: best-of-all where spilling also converged.
                std::vector<int> members;
                std::vector<BatchJob> bestJobs;
                for (std::size_t k = 0; k < candidates.size(); ++k) {
                    if (!spills[k].success)
                        continue;
                    members.push_back(int(k));
                    bestJobs.push_back(variantJob(
                        candidates[k], Variant::BestOfAll, registers));
                }
                const auto bests = suiteRunner().run(
                    suite, m, bestJobs, benchRunOptions());

                double cyclesIi = 0, cyclesSpill = 0, cyclesBest = 0;
                int subset = 0, spillWins = 0, iiWins = 0;
                for (std::size_t j = 0; j < members.size(); ++j) {
                    const int k = members[j];
                    const int loopIdx = candidates[std::size_t(k)];
                    const int ii = incr[std::size_t(loopIdx)].ii();
                    const int is = spills[std::size_t(k)].ii();
                    const int ib = bests[j].ii();
                    ++subset;
                    const double w =
                        double(suite[std::size_t(loopIdx)].iterations);
                    cyclesIi += double(ii) * w;
                    cyclesSpill += double(is) * w;
                    cyclesBest += double(ib) * w;
                    spillWins += is < ii;
                    iiWins += ii < is;
                }
                table.row()
                    .add(m.name())
                    .add(registers)
                    .add(subset)
                    .add(cyclesIi / 1e9, 4)
                    .add(cyclesSpill / 1e9, 4)
                    .add(cyclesBest / 1e9, 4)
                    .add(spillWins)
                    .add(iiWins);
            }
        }
        std::cout << "\nFigure 9: increase-II vs spill vs best-of-all "
                     "(converging subset only)\n";
        table.print(std::cout);
        recordTable("strategies", table);
    }
}

BENCHMARK(runFig9)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("fig9_ii_vs_spill");
