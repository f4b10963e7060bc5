/**
 * @file
 * Statistical micro-benchmarks of the library's hot components,
 * parameterized by loop size: MII computation, HRMS and IMS scheduling
 * at MII, rotating register allocation (the packing alone and a whole
 * allocateLoop), one full constrained-pipeline run, the spilling suite
 * loops under best-of-all at R=32 and R=12, suite generation, and the
 * cycle-accurate simulator. These time individual layers
 * (google-benchmark's adaptive iteration applies), complementing the
 * figure-level harnesses that report one-shot experiment output.
 */

#include <benchmark/benchmark.h>

#include "common.hh"
#include "liferange/lifetimes.hh"
#include "pipeliner/pipeliner.hh"
#include "regalloc/rotalloc.hh"
#include "sched/hrms.hh"
#include "sched/ims.hh"
#include "sched/mii.hh"
#include "sim/vliw.hh"
#include "support/singleflight.hh"
#include "workload/suitegen.hh"

#include <algorithm>
#include <cstdint>
#include <map>

namespace
{

using namespace swp;

/** A deterministic loop of roughly the requested size. */
const SuiteLoop &
loopOfSize(int target)
{
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    static std::map<int, const SuiteLoop *> cache;
    const auto it = cache.find(target);
    if (it != cache.end())
        return *it->second;
    const SuiteLoop *best = &suite[0];
    for (const SuiteLoop &loop : suite) {
        if (std::abs(loop.graph.numNodes() - target) <
            std::abs(best->graph.numNodes() - target)) {
            best = &loop;
        }
    }
    cache[target] = best;
    return *best;
}

void
BM_Mii(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    for (auto _ : state)
        benchmark::DoNotOptimize(mii(loop.graph, m));
    state.SetLabel(loop.graph.name() + "/" +
                   std::to_string(loop.graph.numNodes()) + " nodes");
}
BENCHMARK(BM_Mii)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_HrmsAtMii(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const int lower = mii(loop.graph, m);
    HrmsScheduler hrms;
    for (auto _ : state)
        benchmark::DoNotOptimize(hrms.scheduleAt(loop.graph, m, lower));
}
BENCHMARK(BM_HrmsAtMii)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_ImsAtMii(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const int lower = mii(loop.graph, m);
    ImsScheduler ims;
    for (auto _ : state)
        benchmark::DoNotOptimize(ims.scheduleAt(loop.graph, m, lower));
}
BENCHMARK(BM_ImsAtMii)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_HrmsIiSweep(benchmark::State &state)
{
    // Eight consecutive scheduleAt probes of one loop against one
    // scheduler object — the shape of a spill driver's II search. This
    // is the scheduleAt-dominated workload the reusable workspace
    // targets: every probe after the first reuses its scratch buffers.
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const int lower = mii(loop.graph, m);
    HrmsScheduler hrms;
    for (auto _ : state) {
        for (int ii = lower; ii < lower + 8; ++ii)
            benchmark::DoNotOptimize(hrms.scheduleAt(loop.graph, m, ii));
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_HrmsIiSweep)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_HrmsSuiteProbes(benchmark::State &state)
{
    // One scheduleAt at MII on each of 200 distinct suite loops through
    // one scheduler per iteration: the shape of a batch job stream,
    // where every probe meets a new graph, so the per-graph costs (group
    // graph, recurrence ranking, ordering, validation) all show.
    constexpr int numLoops = 200;
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    const Machine m = benchutil::benchMachine();
    const int count = std::min<int>(numLoops, int(suite.size()));
    std::vector<int> lower;
    lower.reserve(std::size_t(count));
    for (int i = 0; i < count; ++i)
        lower.push_back(mii(suite[std::size_t(i)].graph, m));
    HrmsScheduler hrms;
    for (auto _ : state) {
        for (int i = 0; i < count; ++i) {
            benchmark::DoNotOptimize(hrms.scheduleAt(
                suite[std::size_t(i)].graph, m, lower[std::size_t(i)]));
        }
    }
    state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_HrmsSuiteProbes)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

void
BM_ImsIiSweep(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const int lower = mii(loop.graph, m);
    ImsScheduler ims;
    for (auto _ : state) {
        for (int ii = lower; ii < lower + 8; ++ii)
            benchmark::DoNotOptimize(ims.scheduleAt(loop.graph, m, ii));
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ImsIiSweep)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_RotatingAllocation(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const PipelineResult r = pipelineLoop(loop.graph, m, Strategy::Ideal, {});
    const LifetimeInfo info = analyzeLifetimes(loop.graph, r.sched);
    for (auto _ : state)
        benchmark::DoNotOptimize(minRotatingRegs(info));
}
BENCHMARK(BM_RotatingAllocation)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_AllocateLoop(benchmark::State &state)
{
    // The allocation every spill / best-of-all attempt runs: lifetime
    // analysis plus the register-count search over both orders, at the
    // paper's budget of 32 on the same schedule BM_RotatingAllocation
    // packs.
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const PipelineResult r = pipelineLoop(loop.graph, m, Strategy::Ideal, {});
    for (auto _ : state)
        benchmark::DoNotOptimize(allocateLoop(loop.graph, r.sched, 32));
}
BENCHMARK(BM_AllocateLoop)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_ConstrainedPipeline(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    PipelinerOptions opts;
    opts.registers = 32;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pipelineLoop(loop.graph, m, Strategy::Spill, opts));
    }
}
BENCHMARK(BM_ConstrainedPipeline)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

/**
 * Best-of-all (the CLI's accelerated spilling) at the given budget over
 * the suite loops whose spill run inserts spill code: the longest jobs
 * of a best-of-all suite run, where every spill round and every
 * re-probe of the original loop meets a schedule over the budget.
 */
void
spillSuiteJobs(benchmark::State &state, int registers)
{
    const Machine m = benchutil::benchMachine();
    PipelinerOptions opts;
    opts.registers = registers;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    // Chosen once per budget, outside every timed region.
    static std::map<int, std::vector<const Ddg *>> spillingAt;
    auto [it, fresh] = spillingAt.try_emplace(registers);
    std::vector<const Ddg *> &spilling = it->second;
    if (fresh) {
        for (const SuiteLoop &loop : benchutil::evaluationSuite()) {
            if (spillStrategy(loop.graph, m, opts).spilledLifetimes > 0)
                spilling.push_back(&loop.graph);
        }
    }
    for (auto _ : state) {
        for (const Ddg *g : spilling) {
            benchmark::DoNotOptimize(
                pipelineLoop(*g, m, Strategy::BestOfAll, opts));
        }
    }
    state.SetItemsProcessed(state.iterations() * long(spilling.size()));
    state.SetLabel(std::to_string(spilling.size()) + " loops");
}

void
BM_SpillSuiteJobs(benchmark::State &state)
{
    spillSuiteJobs(state, 32);
}
BENCHMARK(BM_SpillSuiteJobs)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

/**
 * The register sweep's tight end, R=12: 815 loops spill, over more
 * rounds, so the probes meet fused complex groups. Named outside the
 * BM_SpillSuiteJobs prefix that bench_diff watches: its per-process
 * medians spread more than the 15% gate on a loaded host.
 */
void
BM_TightBudgetSpillJobs(benchmark::State &state)
{
    spillSuiteJobs(state, 12);
}
BENCHMARK(BM_TightBudgetSpillJobs)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

void
BM_SuiteRunnerBatch(benchmark::State &state)
{
    // Whole-suite constrained pipelining through the shared batch
    // driver; honours --threads, so this benchmark doubles as the
    // wall-clock measurement of the worker-pool speedup.
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    const Machine m = benchutil::benchMachine();
    SuiteRunner &runner = benchutil::suiteRunner();
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        jobs.push_back(benchutil::variantJob(
            int(i), benchutil::Variant::MaxLtTrafMultiLastIi, 32));
    }
    // One untimed run warms the runner's memos, so the first timed
    // repetition measures the same memo-hot path as the others.
    (void)runner.run(suite, m, jobs, benchutil::benchRunOptions());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runner.run(suite, m, jobs, benchutil::benchRunOptions()));
    }
    state.SetItemsProcessed(state.iterations() * long(jobs.size()));
    state.SetLabel(std::to_string(runner.threads()) + " thread(s)");
}
BENCHMARK(BM_SuiteRunnerBatch)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(5);

void
BM_GenerateSuite(benchmark::State &state)
{
    // Generating the pinned 1258-loop suite, which every harness and
    // swpipe_cli --suite pay before scheduling anything. Default
    // parameters, so --seed/--loops do not change what is timed.
    const SuiteParams params;
    for (auto _ : state)
        benchmark::DoNotOptimize(generateSuite(params));
    state.SetItemsProcessed(state.iterations() * params.numLoops);
}
BENCHMARK(BM_GenerateSuite)->Unit(benchmark::kMillisecond)->Repetitions(5);

void
BM_Simulator(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(24);
    const Machine m = benchutil::benchMachine();
    const PipelineResult r = pipelineLoop(loop.graph, m, Strategy::Ideal, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulatePipelined(
            r.graph(), m, r.sched, r.alloc.rotAlloc, state.range(0)));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Simulator)->Arg(16)->Arg(64)->Arg(256);

// ---- Memo contention: the single-flight hit path -------------------
//
// Every thread hammers the same already-computed key, the worst
// contention case a memo-hot grid produces: all hits land on one
// stripe and are served under its shared lock. bench/scaling measures
// the end-to-end effect of the memo on a real grid.

constexpr std::uint64_t kHotKey = 42;

std::uint64_t
hotCompute()
{
    return kHotKey * kHotKey;
}

void
BM_MemoContention(benchmark::State &state)
{
    static SingleFlightCache<std::uint64_t, std::uint64_t> cache(
        /*threadsHint=*/8);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sink += cache.getOrCompute(kHotKey, hotCompute,
                                   [](const std::uint64_t &) {});
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoContention)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

} // namespace

SWP_BENCH_MAIN_NATIVE_JSON("micro_components");
