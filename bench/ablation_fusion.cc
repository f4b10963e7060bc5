/**
 * @file
 * Ablation: complex-operation fusion (Section 4.3).
 *
 * The paper argues that without forcing spill loads/stores to be
 * scheduled as one "complex operation" with their consumers/producers,
 * a register-insensitive scheduler can place the reload far from its
 * use, re-growing the lifetime that was just spilled — so the iterative
 * process may fail to converge. This bench runs the spilling driver
 * with fusion on and off, under both HRMS (register sensitive) and IMS
 * (register insensitive), and reports convergence and quality.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "common.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace
{

using namespace swp;
using namespace swp::benchutil;

struct Cell
{
    int converged = 0;
    double cycles = 0;
    long rounds = 0;
    long spills = 0;
};

Cell
run(const std::vector<SuiteLoop> &suite, const Machine &m,
    SchedulerKind kind, bool fuse, int registers)
{
    BatchJob proto;
    proto.strategy = Strategy::Spill;
    proto.options.registers = registers;
    proto.options.scheduler = kind;
    proto.options.multiSelect = true;
    proto.options.reuseLastIi = true;
    proto.options.fuseSpillOps = fuse;
    proto.options.maxSpillRounds = 48;  // Bound the divergent cases.

    const auto results = suiteRunner().run(
        suite, m, protoJobs(suite.size(), proto), benchRunOptions());

    Cell cell;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const PipelineResult &r = results[i];
        cell.converged += r.success && !r.usedFallback;
        cell.cycles += double(r.ii()) * double(suite[i].iterations);
        cell.rounds += r.rounds;
        cell.spills += r.spilledLifetimes;
    }
    return cell;
}

void
runAblation(benchmark::State &state)
{
    // A subset keeps the no-fusion (pathological) cells affordable.
    const auto &full = evaluationSuite();
    const std::vector<SuiteLoop> suite(
        full.begin(),
        full.begin() + std::min<std::ptrdiff_t>(400, full.size()));
    const Machine m = benchMachine();

    for (auto _ : state) {
        Table table({"scheduler", "fusion", "converged", "cycles(1e9)",
                     "rounds", "spills"});
        for (const SchedulerKind kind :
             {SchedulerKind::Hrms, SchedulerKind::Ims}) {
            for (const bool fuse : {true, false}) {
                const Cell cell = run(suite, m, kind, fuse, 32);
                table.row()
                    .add(schedulerKindName(kind))
                    .add(fuse ? "on" : "off")
                    .add(strprintf("%d/%zu", cell.converged,
                                   suite.size()))
                    .add(cell.cycles / 1e9, 4)
                    .add(cell.rounds)
                    .add(cell.spills);
            }
        }
        std::cout << "\nAblation: complex-operation fusion "
                     "(P2L4, 32 registers, " << suite.size()
                  << "-loop subset)\n";
        table.print(std::cout);
        std::cout << "expected: without fusion, convergence drops and "
                     "rounds/spills inflate, especially under the "
                     "register-insensitive scheduler (IMS).\n";
        recordTable("fusion", table);
    }
}

BENCHMARK(runAblation)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("ablation_fusion");
