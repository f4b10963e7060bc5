/**
 * @file
 * Figure 4: register requirements as the initiation interval grows, for
 * a loop that converges (APSI 47 analogue) and one that never does
 * (APSI 50 analogue), on configuration P2L4.
 *
 * Expected shape: the converging loop's requirement decays roughly as
 * 1/II (scheduling components spread over more cycles) and crosses 32
 * and then 16 registers; the non-converging loop flattens onto a
 * plateau above 32 set by its distance components plus invariants.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/mii.hh"
#include "support/table.hh"
#include "workload/paper_loops.hh"

namespace
{

using namespace swp;

void
sweep(const Ddg &g, const Machine &m, int max_extra, Table &table)
{
    PipelinerOptions opts;
    const int lower = benchutil::suiteRunner().mii(g, m);

    // Every II point is independent; sweep them across the pool and
    // emit the rows serially so the table is thread-count invariant.
    std::vector<int> regsAt(std::size_t(max_extra) + 1, -1);
    benchutil::suiteRunner().parallelFor(
        regsAt.size(), [&](std::size_t k) {
            regsAt[k] = registersAtIi(g, m, lower + int(k), opts);
        });

    int reached32 = -1, reached16 = -1, plateau = -1;
    for (int ii = lower; ii <= lower + max_extra; ++ii) {
        const int regs = regsAt[std::size_t(ii - lower)];
        if (regs < 0)
            continue;
        table.row().add(g.name()).add(ii).add(regs);
        if (reached32 < 0 && regs <= 32)
            reached32 = ii;
        if (reached16 < 0 && regs <= 16)
            reached16 = ii;
        plateau = regs;
    }
    std::cout << g.name() << ": MII=" << lower << ", reaches 32 regs at "
              << (reached32 < 0 ? std::string("(never)")
                                : "II=" + std::to_string(reached32))
              << ", 16 regs at "
              << (reached16 < 0 ? std::string("(never)")
                                : "II=" + std::to_string(reached16))
              << ", final level " << plateau << " regs\n";
}

void
runFig4(benchmark::State &state)
{
    const Machine m = benchutil::benchMachine();
    for (auto _ : state) {
        std::cout << "\nFigure 4: register requirement vs II (P2L4)\n";
        Table table({"loop", "II", "registers"});
        sweep(buildApsi47Analogue(), m, 60, table);
        sweep(buildApsi50Analogue(), m, 60, table);
        table.print(std::cout);
        benchutil::recordTable("registers_vs_ii", table);
    }
}

BENCHMARK(runFig4)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("fig4_increase_ii");
