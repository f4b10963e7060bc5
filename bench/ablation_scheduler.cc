/**
 * @file
 * Ablation: register sensitivity of the core scheduler.
 *
 * The paper uses HRMS precisely because it is register sensitive. This
 * bench quantifies that choice: over the unconstrained suite, compare
 * HRMS and IMS on achieved II and on MaxLive, show how much of the gap
 * the stage-scheduling post-pass ([13]) recovers for IMS, and compare
 * the end-to-end register-constrained results under both schedulers.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hh"
#include "liferange/stagesched.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "support/table.hh"

namespace
{

using namespace swp;
using namespace swp::benchutil;

void
runAblation(benchmark::State &state)
{
    const auto &suite = evaluationSuite();
    const Machine m = benchMachine();

    for (auto _ : state) {
        SuiteRunner &runner = suiteRunner();

        // Per-loop raw scheduler comparison, evaluated across the pool
        // into per-index slots and reduced serially below.
        struct Record
        {
            bool counted = false;
            int iiHrms = 0, iiIms = 0;
            bool hrmsAtMii = false, imsAtMii = false;
            int mlHrms = 0, mlIms = 0, mlImsStaged = 0;
        };
        // Loops either scheduler fails on keep counted == false.
        std::vector<Record> records(suite.size());
        runner.parallelFor(suite.size(), [&](std::size_t i) {
            const SuiteLoop &loop = suite[i];
            const int lower = runner.mii(loop.graph, m);
            auto hrms = makeScheduler(SchedulerKind::Hrms);
            auto ims = makeScheduler(SchedulerKind::Ims);
            const IiSearchResult rh =
                searchIi(*hrms, loop.graph, m, lower);
            const IiSearchResult ri =
                searchIi(*ims, loop.graph, m, lower);
            if (!rh.sched || !ri.sched)
                return;
            Record &rec = records[i];
            rec.counted = true;
            rec.iiHrms = rh.sched->ii();
            rec.iiIms = ri.sched->ii();
            rec.hrmsAtMii = rh.sched->ii() == lower;
            rec.imsAtMii = ri.sched->ii() == lower;
            rec.mlHrms = analyzeLifetimes(loop.graph, *rh.sched).maxLive;
            rec.mlIms = analyzeLifetimes(loop.graph, *ri.sched).maxLive;
            rec.mlImsStaged =
                stageSchedule(loop.graph, m, *ri.sched).maxLiveAfter;
        });

        long iiHrms = 0, iiIms = 0, atMiiHrms = 0, atMiiIms = 0;
        long mlHrms = 0, mlIms = 0, mlImsStaged = 0;
        int counted = 0;
        for (const Record &rec : records) {
            if (!rec.counted)
                continue;
            ++counted;
            iiHrms += rec.iiHrms;
            iiIms += rec.iiIms;
            atMiiHrms += rec.hrmsAtMii;
            atMiiIms += rec.imsAtMii;
            mlHrms += rec.mlHrms;
            mlIms += rec.mlIms;
            mlImsStaged += rec.mlImsStaged;
        }

        Table table({"metric", "HRMS", "IMS", "IMS+stage-sched"});
        table.row()
            .add("loops scheduled at MII")
            .add(atMiiHrms)
            .add(atMiiIms)
            .add("-");
        table.row()
            .add("total II")
            .add(iiHrms)
            .add(iiIms)
            .add("-");
        table.row()
            .add("total MaxLive")
            .add(mlHrms)
            .add(mlIms)
            .add(mlImsStaged);

        std::cout << "\nAblation: scheduler register sensitivity ("
                  << counted << " loops, P2L4, unconstrained)\n";
        table.print(std::cout);
        recordTable("register_sensitivity", table);

        // End-to-end: constrained pipelining under each scheduler.
        Table end({"scheduler", "regs", "cycles(1e9)", "spills",
                   "unfit"});
        for (const SchedulerKind kind :
             {SchedulerKind::Hrms, SchedulerKind::Ims}) {
            for (const int registers : {64, 32}) {
                BatchJob proto;
                proto.strategy = Strategy::Spill;
                proto.options.registers = registers;
                proto.options.scheduler = kind;
                proto.options.multiSelect = true;
                proto.options.reuseLastIi = true;
                const auto results = runner.run(
                    suite, m, protoJobs(suite.size(), proto),
                    benchRunOptions());

                double cycles = 0;
                long spills = 0;
                int unfit = 0;
                for (std::size_t i = 0; i < suite.size(); ++i) {
                    const PipelineResult &r = results[i];
                    cycles += double(r.ii()) * double(suite[i].iterations);
                    spills += r.spilledLifetimes;
                    unfit += !r.success;
                }
                end.row()
                    .add(schedulerKindName(kind))
                    .add(registers)
                    .add(cycles / 1e9, 4)
                    .add(spills)
                    .add(unfit);
            }
        }
        std::cout << "\nEnd-to-end register-constrained spilling per "
                     "scheduler:\n";
        end.print(std::cout);
        std::cout << "expected: IMS needs more spills (its lifetimes "
                     "are longer), confirming why the paper builds on "
                     "a register-sensitive scheduler.\n";
        recordTable("end_to_end", end);
    }
}

BENCHMARK(runAblation)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("ablation_scheduler");
