/**
 * @file
 * Extension sweep: unrolling before software pipelining.
 *
 * Unrolling by U executes U original iterations per kernel iteration,
 * so the figure of merit is II/U (cycles per *original* iteration).
 * Unrolling can recover fractional resource bounds but multiplies the
 * body and the register pressure; under a fixed register budget the
 * constrained pipeliner must spill the excess away, and the net effect
 * flips from gain to loss as U grows — which this sweep measures on a
 * suite subset and on the APSI analogues.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "common.hh"
#include "ir/unroll.hh"
#include "sched/mii.hh"
#include "support/strutil.hh"
#include "support/table.hh"
#include "workload/paper_loops.hh"

namespace
{

using namespace swp;
using namespace swp::benchutil;

void
sweepLoop(const Ddg &g, const Machine &m, int registers, Table &table)
{
    const int factors[] = {1, 2, 3, 4};

    // One suite entry per unroll factor, evaluated as one batch.
    std::vector<SuiteLoop> unrolled;
    for (const int factor : factors)
        unrolled.push_back({unrollLoop(g, factor), 1});

    BatchJob proto;
    proto.strategy = Strategy::Spill;
    proto.options.registers = registers;
    proto.options.multiSelect = true;
    proto.options.reuseLastIi = true;
    const auto results = suiteRunner().run(
        unrolled, m, protoJobs(unrolled.size(), proto),
        benchRunOptions());

    for (std::size_t i = 0; i < unrolled.size(); ++i) {
        const int factor = factors[i];
        const PipelineResult &r = results[i];
        table.row()
            .add(g.name())
            .add(factor)
            .add(mii(unrolled[i].graph, m))
            .add(r.success ? (r.usedFallback ? "fallback" : "yes")
                           : "NO")
            .add(r.ii())
            .add(double(r.ii()) / factor, 2)
            .add(r.alloc.regsRequired)
            .add(r.spilledLifetimes);
    }
}

void
runSweep(benchmark::State &state)
{
    const Machine m = benchMachine();
    const auto &full = evaluationSuite();

    for (auto _ : state) {
        Table table({"loop", "unroll", "MII", "fits", "II",
                     "II/original-iter", "regs", "spills"});
        sweepLoop(buildApsi47Analogue(), m, 32, table);
        sweepLoop(buildApsi50Analogue(), m, 32, table);
        std::cout << "\nUnroll sweep on the case-study loops "
                     "(P2L4, 32 registers)\n";
        table.print(std::cout);
        recordTable("case_study", table);

        // Aggregate over a suite subset.
        const std::size_t subset = std::min<std::size_t>(200, full.size());
        Table agg({"unroll", "cycles/orig-iter (sum)", "spills",
                   "unfit"});
        for (const int factor : {1, 2, 3}) {
            std::vector<SuiteLoop> unrolled(subset);
            suiteRunner().parallelFor(
                subset, [&](std::size_t i) {
                    unrolled[i] = {unrollLoop(full[i].graph, factor),
                                   full[i].iterations};
                });

            BatchJob proto;
            proto.strategy = Strategy::Spill;
            proto.options.registers = 32;
            proto.options.multiSelect = true;
            proto.options.reuseLastIi = true;
            const auto results = suiteRunner().run(
                unrolled, m, protoJobs(subset, proto), benchRunOptions());

            double perIter = 0;
            long spills = 0;
            int unfit = 0;
            for (const PipelineResult &r : results) {
                perIter += double(r.ii()) / factor;
                spills += r.spilledLifetimes;
                unfit += !r.success;
            }
            agg.row()
                .add(factor)
                .add(perIter, 1)
                .add(spills)
                .add(unfit);
        }
        std::cout << "\nUnroll sweep over " << subset
                  << " suite loops (P2L4, 32 registers)\n";
        agg.print(std::cout);
        recordTable("suite_subset", agg);
    }
}

BENCHMARK(runSweep)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("sweep_unroll");
