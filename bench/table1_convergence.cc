/**
 * @file
 * Table 1: loops that never converge to a given number of registers
 * under the increase-II strategy, and the percentage of execution
 * cycles they represent.
 *
 * The paper reports (for 1258 Perfect Club loops) that only a handful
 * of loops never converge, but that they account for roughly 20% of all
 * cycles at 64 registers and 30% at 32 registers, and that the failing
 * set is essentially configuration-independent (topology decides).
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <set>

#include "common.hh"
#include "support/table.hh"

namespace
{

using namespace swp;
using namespace swp::benchutil;

void
runTable1(benchmark::State &state)
{
    const auto &suite = evaluationSuite();

    for (auto _ : state) {
        Table table({"config", "registers", "never-converge",
                     "% of loops", "% of cycles"});
        std::set<int> failing32, failing64;

        for (const Machine &m : evaluationMachines()) {
            // Cycle weights under infinite registers (the paper's
            // normalization for the % column).
            std::vector<BatchJob> idealJobs;
            for (std::size_t i = 0; i < suite.size(); ++i)
                idealJobs.push_back(
                    variantJob(int(i), Variant::Ideal, 0));
            const auto ideal = suiteRunner().run(suite, m, idealJobs,
                                                 benchRunOptions());

            std::vector<double> idealCycles(suite.size(), 0.0);
            double totalCycles = 0;
            for (std::size_t i = 0; i < suite.size(); ++i) {
                const double c = double(ideal[i].ii()) *
                                 double(suite[i].iterations);
                idealCycles[i] = c;
                totalCycles += c;
            }

            for (const int registers : {64, 32}) {
                std::vector<BatchJob> jobs;
                for (std::size_t i = 0; i < suite.size(); ++i)
                    jobs.push_back(variantJob(
                        int(i), Variant::IncreaseIi, registers));
                const auto results = suiteRunner().run(
                    suite, m, jobs, benchRunOptions());

                int diverged = 0;
                double divergedCycles = 0;
                for (std::size_t i = 0; i < suite.size(); ++i) {
                    if (results[i].usedFallback) {
                        ++diverged;
                        divergedCycles += idealCycles[i];
                        (registers == 32 ? failing32 : failing64)
                            .insert(int(i));
                    }
                }
                table.row()
                    .add(m.name())
                    .add(registers)
                    .add(diverged)
                    .add(100.0 * diverged / double(suite.size()), 2)
                    .add(100.0 * divergedCycles / totalCycles, 1);
            }
        }

        std::cout << "\nTable 1: loops that never converge under "
                     "increase-II (" << suite.size() << " loops)\n";
        table.print(std::cout);
        std::cout << "distinct failing loops @32 across configs: "
                  << failing32.size() << ", @64: " << failing64.size()
                  << " (paper: the same loops fail regardless of "
                     "configuration)\n";
        recordTable("convergence", table);
        recordMetric("distinct_failing_loops_32",
                     double(failing32.size()));
        recordMetric("distinct_failing_loops_64",
                     double(failing64.size()));
    }
}

BENCHMARK(runTable1)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("table1_convergence");
