/**
 * @file
 * Figure 7: evolution of the register requirement, MII, II and memory
 * bus utilization as lifetimes are spilled one at a time with the
 * Max(LT) heuristic (APSI 47/50 analogues, P2L4).
 *
 * Expected shape: registers fall as lifetimes are spilled (with
 * occasional non-monotone bumps when the rescheduled graph packs
 * differently); the II rises faster than the MII because the fused
 * "complex operations" constrain the scheduler; bus utilization grows
 * with the added loads/stores but never reaches 100%.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <sstream>
#include <vector>

#include "common.hh"
#include "support/table.hh"
#include "workload/paper_loops.hh"

namespace
{

using namespace swp;

/** One trace's output: its table rows plus the summary line. */
struct TraceOutput
{
    std::vector<std::vector<std::string>> rows;
    std::string summary;
};

TraceOutput
traceSpilling(const Ddg &g, const Machine &m, int registers)
{
    PipelinerOptions opts;
    opts.registers = registers;
    opts.heuristic = SpillHeuristic::MaxLT;  // The figure's heuristic.
    opts.multiSelect = false;                // One lifetime per round.

    TraceOutput out;
    Table table({"loop", "budget", "spilled", "regs", "MII", "II",
                 "bus%"});
    const int memUnits = m.unitsFor(FuClass::Mem);
    const PipelineResult r = spillStrategy(
        g, m, opts, [&](const SpillRoundInfo &info) {
            const double busUse = 100.0 * double(info.memOps) /
                                  (double(info.ii) * double(memUnits));
            table.row()
                .add(g.name())
                .add(registers)
                .add(info.spilledSoFar)
                .add(info.regsRequired)
                .add(info.mii)
                .add(info.ii)
                .add(busUse, 1);
        });
    out.rows = table.rows();
    std::ostringstream os;
    os << g.name() << " to " << registers << " regs: "
       << (r.success ? "converged" : "FAILED") << " after "
       << r.spilledLifetimes << " spilled lifetimes, final II="
       << r.ii() << " (MII=" << r.mii << "), "
       << r.memOpsPerIteration() << " mem ops/iter\n";
    out.summary = os.str();
    return out;
}

void
runFig7(benchmark::State &state)
{
    const Machine m = benchutil::benchMachine();
    for (auto _ : state) {
        std::cout << "\nFigure 7: spilling one lifetime per round, "
                     "Max(LT), P2L4\n";
        const struct
        {
            const char *loop;
            int budget;
        } cases[] = {{"apsi47", 32}, {"apsi47", 16},
                     {"apsi50", 32}, {"apsi50", 16}};
        std::vector<TraceOutput> outputs(4);

        // The four traces are independent; each collects its own rows,
        // which are then stitched together in fixed order so the table
        // is identical at any thread count.
        benchutil::suiteRunner().parallelFor(4, [&](std::size_t k) {
            const Ddg g = std::string(cases[k].loop) == "apsi47"
                              ? buildApsi47Analogue()
                              : buildApsi50Analogue();
            outputs[k] = traceSpilling(g, m, cases[k].budget);
        });

        Table table({"loop", "budget", "spilled", "regs", "MII", "II",
                     "bus%"});
        for (const TraceOutput &out : outputs) {
            for (const auto &row : out.rows) {
                auto &r = table.row();
                for (const std::string &cell : row)
                    r.add(cell);
            }
            std::cout << out.summary;
        }
        table.print(std::cout);
        benchutil::recordTable("spill_rounds", table);
    }
}

BENCHMARK(runFig7)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("fig7_spill_behavior");
