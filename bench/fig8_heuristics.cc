/**
 * @file
 * Figure 8: whole-suite evaluation of the spilling heuristics for the
 * three machine configurations with 64 and 32 registers.
 *
 *  (a) execution cycles of all loops (ideal = infinite registers,
 *      Max(LT), Max(LT/Traf), +multiple lifetimes, +last II tried);
 *  (b) dynamic memory references;
 *  (c) time to construct all schedules (wall clock here, plus the
 *      machine-independent attempt count).
 *
 * Expected shape: Max(LT/Traf) dominates Max(LT) in cycles and clearly
 * in traffic; with 64 registers the degradation vs ideal is marginal;
 * the two accelerators cut scheduling time by roughly an order of
 * magnitude at 32 registers with only slight quality loss.
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
runFig8(benchmark::State &state)
{
    const auto &suite = evaluationSuite();
    const Variant variants[] = {
        Variant::Ideal, Variant::MaxLt, Variant::MaxLtTraf,
        Variant::MaxLtTrafMulti, Variant::MaxLtTrafMultiLastIi};

    for (auto _ : state) {
        Table table({"config", "regs", "variant", "cycles(1e9)",
                     "memrefs(1e9)", "sched-time(s)", "attempts",
                     "spills", "unfit"});
        for (const int registers : {64, 32}) {
            for (const Machine &m : evaluationMachines()) {
                for (const Variant v : variants) {
                    const SuiteTotals t =
                        runSuite(suite, m, registers, v);
                    table.row()
                        .add(m.name())
                        .add(registers)
                        .add(variantName(v))
                        .add(t.cycles / 1e9, 4)
                        .add(t.memRefs / 1e9, 4)
                        .add(t.seconds, 2)
                        .add(t.attempts)
                        .add(t.spills)
                        .add(t.unfit);
                }
            }
        }
        std::cout << "\nFigure 8: spilling heuristics over the "
                  << suite.size() << "-loop suite\n";
        table.print(std::cout);
        recordTable("heuristics", table);
    }
}

BENCHMARK(runFig8)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("fig8_heuristics");
