/**
 * @file
 * Extension sweep: whole-suite performance as a function of register
 * file size (8..128), for the best heuristic combination and for
 * increase-II. A natural extrapolation of Figure 8's two budgets: it
 * locates the knee where spilling stops costing anything and shows
 * increase-II's divergence tax growing as the file shrinks.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace
{

using namespace swp;
using namespace swp::benchutil;

void
runSweep(benchmark::State &state)
{
    const auto &suite = evaluationSuite();
    const Machine m = benchMachine();

    for (auto _ : state) {
        const SuiteTotals ideal =
            runSuite(suite, m, 1 << 20, Variant::Ideal);

        Table table({"regs", "spill cycles(1e9)", "vs ideal",
                     "memrefs(1e9)", "spills", "incII cycles(1e9)",
                     "incII diverged"});
        for (const int registers : {128, 96, 64, 48, 32, 24, 16, 8}) {
            const SuiteTotals spill = runSuite(
                suite, m, registers, Variant::MaxLtTrafMultiLastIi);
            const SuiteTotals incr =
                runSuite(suite, m, registers, Variant::IncreaseIi);
            table.row()
                .add(registers)
                .add(spill.cycles / 1e9, 4)
                .add(strprintf("%+.1f%%",
                               100.0 * (spill.cycles - ideal.cycles) /
                                   ideal.cycles))
                .add(spill.memRefs / 1e9, 4)
                .add(spill.spills)
                .add(incr.cycles / 1e9, 4)
                .add(incr.fallbacks);
        }
        std::cout << "\nRegister-file sweep (P2L4, ideal = "
                  << ideal.cycles / 1e9 << "e9 cycles)\n";
        table.print(std::cout);
        recordTable("register_sweep", table);
        recordMetric("ideal_cycles", ideal.cycles);
    }
}

BENCHMARK(runSweep)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("sweep_registers");
