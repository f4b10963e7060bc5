/**
 * @file
 * Machine-family sweep: run the evaluation suite across a family of
 * machine descriptions — the paper's Section 5 presets plus the
 * examples/machines/ description files — and differentially execute
 * every produced kernel on the cycle-accurate VLIW simulator against
 * the sequential dataflow interpretation of the source loop.
 *
 * Two benchmark groups:
 *  - BM_MachineSweepSchedule/<i>: adaptive timing of constrained
 *    pipelining on family member i (bench_diff watches these);
 *  - BM_MachineFamilyValidation: one pass of the whole suite on every
 *    family member through the shared batch runner (so --verify /
 *    --certify apply), with a vliw-vs-dataflow differential execution
 *    of every allocated kernel. Any divergence aborts the harness.
 *
 * --machine <spec> collapses the family to the one given machine.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hh"
#include "machine/machdesc.hh"
#include "pipeliner/pipeliner.hh"
#include "sim/vliw.hh"
#include "support/diag.hh"
#include "workload/suitegen.hh"

namespace
{

using namespace swp;

/** Iterations of pipelined-vs-sequential differential execution. */
constexpr long kSimIterations = 32;

/** The machine family under test: the Section 5 presets plus every
    description file shipped in examples/machines/ (or just the
    --machine override). Built once; descriptions are parsed through
    the same machdesc path the CLI uses. */
const std::vector<Machine> &
machineFamily()
{
    static const std::vector<Machine> family = [] {
        if (benchutil::benchOptions().run.machine)
            return std::vector<Machine>{*benchutil::benchOptions().run.machine};
        std::vector<Machine> f = {Machine::p1l4(), Machine::p2l4(),
                                  Machine::p2l6()};
        for (const char *file :
             {"scalar.mach", "two_wide.mach", "vliw8.mach",
              "longdiv.mach"}) {
            f.push_back(machineFromSpec(std::string(SWP_MACHINES_DIR) +
                                        "/" + file));
        }
        return f;
    }();
    return family;
}

/** Constrained pipelining (best-of-all, 32 registers) of a small
    deterministic loop sample on one family member. */
void
BM_MachineSweepSchedule(benchmark::State &state)
{
    const std::vector<Machine> &family = machineFamily();
    const Machine &m =
        family[std::size_t(state.range(0)) % family.size()];
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    const std::size_t stride = std::max<std::size_t>(suite.size() / 8, 1);

    PipelinerOptions opts;
    opts.registers = 32;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    for (auto _ : state) {
        for (std::size_t i = 0; i < suite.size(); i += stride) {
            benchmark::DoNotOptimize(pipelineLoop(
                suite[i].graph, m, Strategy::BestOfAll, opts));
        }
    }
    state.SetLabel(m.name());
    state.SetItemsProcessed(state.iterations() *
                            long((suite.size() + stride - 1) / stride));
}
BENCHMARK(BM_MachineSweepSchedule)->DenseRange(0, 6);

/** Whole-suite run on every family member through the shared batch
    runner (honouring --threads/--verify/--certify), then differential
    execution of every allocated kernel against the dataflow semantics
    of its source loop. */
void
BM_MachineFamilyValidation(benchmark::State &state)
{
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    SuiteRunner &runner = benchutil::suiteRunner();
    long simulated = 0;

    for (auto _ : state) {
        simulated = 0;
        for (const Machine &m : machineFamily()) {
            std::vector<BatchJob> jobs = benchutil::protoJobs(
                suite.size(), benchutil::variantJob(
                                  0, benchutil::Variant::BestOfAll, 32));
            const std::vector<PipelineResult> results = runner.run(
                suite, m, jobs, benchutil::benchRunOptions());
            for (std::size_t i = 0; i < results.size(); ++i) {
                const PipelineResult &r = results[i];
                if (!r.alloc.rotAlloc.ok)
                    continue;  // No allocation to execute under.
                std::string why;
                if (!equivalentToSequential(suite[i].graph, r.graph(),
                                            m, r.sched,
                                            r.alloc.rotAlloc,
                                            kSimIterations, &why)) {
                    SWP_FATAL("machine sweep: kernel of loop '",
                              suite[i].graph.name(), "' on machine '",
                              m.name(),
                              "' diverges from sequential execution: ",
                              why);
                }
                ++simulated;
            }
        }
    }
    state.SetLabel(std::to_string(machineFamily().size()) +
                   " machines, " + std::to_string(simulated) +
                   " kernels executed");
    state.SetItemsProcessed(long(machineFamily().size()) *
                            long(suite.size()));
}
BENCHMARK(BM_MachineFamilyValidation)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

SWP_BENCH_MAIN_NATIVE_JSON("sweep_machines");
