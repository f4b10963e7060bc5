/**
 * @file
 * Ablation: spill whole values vs single uses (Section 6 future work).
 *
 * The paper predicts little improvement from use-granularity spilling
 * "since most of the variables are used only once". This bench runs
 * the constrained pipeline with and without use-granularity candidates
 * and reports cycles, traffic and spill counts, quantifying that
 * prediction on the evaluation suite.
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
runAblation(benchmark::State &state)
{
    const auto &suite = evaluationSuite();

    for (auto _ : state) {
        // How many values even have several uses?
        long values = 0, multiUse = 0;
        for (const SuiteLoop &loop : suite) {
            for (NodeId n = 0; n < loop.graph.numNodes(); ++n) {
                if (!producesValue(loop.graph.node(n).op))
                    continue;
                const int uses = loop.graph.numValueUses(n);
                values += uses > 0;
                multiUse += uses > 1;
            }
        }
        std::cout << "\nAblation: use-granularity spilling\n";
        // values can be 0 on a suite without values; print 0% rather
        // than a 0/0 NaN.
        std::cout << "suite values with >1 use: " << multiUse << " of "
                  << values << " ("
                  << (values ? 100.0 * double(multiUse) / double(values)
                             : 0.0)
                  << "%) — the paper's premise for expecting little "
                     "gain\n";

        Table table({"config", "regs", "granularity", "cycles(1e9)",
                     "memrefs(1e9)", "spills", "unfit"});
        for (const Machine &m : evaluationMachines()) {
            for (const int registers : {32, 16}) {
                for (const bool uses : {false, true}) {
                    BatchJob proto;
                    proto.strategy = Strategy::Spill;
                    proto.options.registers = registers;
                    proto.options.multiSelect = true;
                    proto.options.reuseLastIi = true;
                    proto.options.spillUses = uses;
                    const auto results = suiteRunner().run(
                        suite, m, protoJobs(suite.size(), proto),
                        benchRunOptions());

                    double cycles = 0, refs = 0;
                    long spills = 0;
                    int unfit = 0;
                    for (std::size_t i = 0; i < suite.size(); ++i) {
                        const PipelineResult &r = results[i];
                        cycles +=
                            double(r.ii()) * double(suite[i].iterations);
                        refs += double(r.memOpsPerIteration()) *
                                double(suite[i].iterations);
                        spills += r.spilledLifetimes;
                        unfit += !r.success;
                    }
                    table.row()
                        .add(m.name())
                        .add(registers)
                        .add(uses ? "value+use" : "value")
                        .add(cycles / 1e9, 4)
                        .add(refs / 1e9, 4)
                        .add(spills)
                        .add(unfit);
                }
            }
        }
        table.print(std::cout);
        recordTable("granularity", table);
        recordMetric("suite_values", double(values));
        recordMetric("suite_multi_use_values", double(multiUse));
    }
}

BENCHMARK(runAblation)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("ablation_spill_uses");
