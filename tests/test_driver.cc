/**
 * @file
 * Batch driver tests: deterministic results at any thread count on the
 * pinned-seed suite, equal to the context-free pipelineLoop call, the
 * single-flight MII and schedule memos, the persistent worker pool, the
 * parallel-for primitive, and the shared run flags.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/run_flags.hh"
#include "driver/suite_runner.hh"
#include "sched/fingerprint.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "testkit/steal_model.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

/** A small pinned-seed suite plus a mixed job grid over it. */
std::vector<SuiteLoop>
testSuite(int loops)
{
    SuiteParams params;  // Pinned default seed.
    params.numLoops = loops;
    return generateSuite(params);
}

std::vector<BatchJob>
mixedGrid(std::size_t loops)
{
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < loops; ++i) {
        BatchJob spill;
        spill.loop = int(i);
        spill.strategy = Strategy::Spill;
        spill.options.registers = 32;
        spill.options.multiSelect = true;
        spill.options.reuseLastIi = true;
        jobs.push_back(spill);

        BatchJob incr;
        incr.loop = int(i);
        incr.strategy = Strategy::IncreaseII;
        incr.options.registers = 32;
        jobs.push_back(incr);

        BatchJob ideal;
        ideal.loop = int(i);
        ideal.strategy = Strategy::Ideal;
        jobs.push_back(ideal);

        BatchJob best;
        best.loop = int(i);
        best.strategy = Strategy::BestOfAll;
        best.options.registers = 16;
        best.options.multiSelect = true;
        best.options.reuseLastIi = true;
        jobs.push_back(best);
    }
    return jobs;
}

/**
 * Test-local reference for the plan's work-size estimate of one job:
 * node count x candidate-II span (MII through defaultMaxIi).
 */
double
referenceJobCost(const std::vector<SuiteLoop> &suite, const Machine &m,
                 const BatchJob &job)
{
    const Ddg &g = suite[std::size_t(job.loop)].graph;
    const int span = std::max(1, defaultMaxIi(g, m) - mii(g, m) + 1);
    return double(g.numNodes()) * double(span);
}

void
expectIdenticalResults(const PipelineResult &a, const PipelineResult &b,
                       std::size_t job)
{
    EXPECT_EQ(a.success, b.success) << "job " << job;
    EXPECT_EQ(a.usedFallback, b.usedFallback) << "job " << job;
    EXPECT_EQ(a.mii, b.mii) << "job " << job;
    EXPECT_EQ(a.rounds, b.rounds) << "job " << job;
    EXPECT_EQ(a.attempts, b.attempts) << "job " << job;
    EXPECT_EQ(a.spilledLifetimes, b.spilledLifetimes) << "job " << job;
    EXPECT_EQ(a.ii(), b.ii()) << "job " << job;
    EXPECT_EQ(a.alloc.regsRequired, b.alloc.regsRequired)
        << "job " << job;
    EXPECT_EQ(a.alloc.maxLive, b.alloc.maxLive) << "job " << job;
    EXPECT_EQ(a.memOpsPerIteration(), b.memOpsPerIteration())
        << "job " << job;
    ASSERT_EQ(a.graph().numNodes(), b.graph().numNodes())
        << "job " << job;
    for (NodeId n = 0; n < a.graph().numNodes(); ++n) {
        EXPECT_EQ(a.sched.time(n), b.sched.time(n))
            << "job " << job << " node " << n;
        EXPECT_EQ(a.sched.unit(n), b.sched.unit(n))
            << "job " << job << " node " << n;
    }
}

TEST(SuiteRunner, ResultsIdenticalAtOneAndManyThreads)
{
    const std::vector<SuiteLoop> suite = testSuite(40);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner serial(1);
    SuiteRunner pooled(4);
    const auto a = serial.run(suite, m, jobs);
    const auto b = pooled.run(suite, m, jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdenticalResults(a[i], b[i], i);

    // The harnesses' accumulated floating-point totals must also match
    // bit-for-bit: same values reduced in the same (index) order.
    double cyclesA = 0, cyclesB = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const long w = suite[std::size_t(jobs[i].loop)].iterations;
        cyclesA += double(a[i].ii()) * double(w);
        cyclesB += double(b[i].ii()) * double(w);
    }
    EXPECT_EQ(cyclesA, cyclesB);
}

TEST(SuiteRunner, RepeatedRunsAreIdentical)
{
    // The MII memo and scheduler reuse must not make a second pass over
    // the same grid diverge from the first.
    const std::vector<SuiteLoop> suite = testSuite(12);
    const Machine m = Machine::p1l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner runner(3);
    const auto first = runner.run(suite, m, jobs);
    const auto second = runner.run(suite, m, jobs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdenticalResults(first[i], second[i], i);
}

TEST(SuiteRunner, BoundsMatchDirectComputation)
{
    const std::vector<SuiteLoop> suite = testSuite(8);
    SuiteRunner runner(2);
    for (const Machine &m : {Machine::p1l4(), Machine::p2l6()}) {
        for (const SuiteLoop &loop : suite) {
            const int b = runner.mii(loop.graph, m);
            EXPECT_EQ(b, mii(loop.graph, m)) << loop.graph.name();
            // Second lookup hits the memo and must agree.
            EXPECT_EQ(runner.mii(loop.graph, m), b);
        }
    }
}

TEST(SuiteRunner, BoundsDistinguishSameNamedMachines)
{
    // The memo key must reflect the machine's configuration, not just
    // its (non-unique) name.
    const std::vector<SuiteLoop> suite = testSuite(1);
    const Ddg &g = suite[0].graph;
    const Machine wide = Machine::universal("m", 8, 2);
    const Machine narrow = Machine::universal("m", 1, 2);
    SuiteRunner runner(1);
    EXPECT_EQ(runner.mii(g, wide), mii(g, wide));
    EXPECT_EQ(runner.mii(g, narrow), mii(g, narrow));
    EXPECT_GT(runner.mii(g, narrow), runner.mii(g, wide));
}

TEST(SuiteRunner, MemoizedResultsEqualContextFreeCalls)
{
    // The memos, the known MII, the reused schedulers and the
    // heaviest-first plan change the work, never the answer: at 1 and N
    // threads every result equals the context-free pipelineLoop call
    // (no memo, no known MII, fresh schedulers) on the same job.
    const std::vector<SuiteLoop> suite = testSuite(16);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    std::vector<PipelineResult> reference;
    for (const BatchJob &job : jobs) {
        reference.push_back(pipelineLoop(suite[std::size_t(job.loop)].graph,
                                         m, job.strategy, job.options));
    }

    for (const int threads : {1, 4}) {
        SuiteRunner runner(threads);
        const auto results = runner.run(suite, m, jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectIdenticalResults(reference[i], results[i], i);
        EXPECT_GT(runner.memoStats().schedule.requests, 0)
            << threads << " threads";
    }
}

TEST(SuiteRunner, ScheduleMemoEliminatesReworkAcrossBatches)
{
    // A second pass over the same grid must hit the memo on every
    // probe: zero new scheduler computations.
    const std::vector<SuiteLoop> suite = testSuite(10);
    const Machine m = Machine::p1l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner runner(3);
    const auto first = runner.run(suite, m, jobs);
    const auto statsAfterFirst = runner.memoStats();
    EXPECT_GT(statsAfterFirst.schedule.computes, 0);
    EXPECT_LT(statsAfterFirst.schedule.computes,
              statsAfterFirst.schedule.requests)
        << "the grid itself repeats probes (best-of-all, ideal/spill "
           "overlap) that the memo must serve from cache";

    const auto second = runner.run(suite, m, jobs);
    const auto statsAfterSecond = runner.memoStats();
    EXPECT_EQ(statsAfterSecond.schedule.computes,
              statsAfterFirst.schedule.computes)
        << "re-running an identical batch scheduled something again";
    EXPECT_GT(statsAfterSecond.schedule.requests,
              statsAfterFirst.schedule.requests);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdenticalResults(first[i], second[i], i);
}

TEST(SuiteRunner, MemosAreSingleFlight)
{
    // Two workers must never compute the same memo key: the number of
    // computations equals the number of distinct keys, with all the
    // rest of the traffic served as hits (duplicate-compute count is
    // exactly zero).
    const std::vector<SuiteLoop> suite = testSuite(6);
    const Machine m = Machine::p2l6();
    SuiteRunner runner(8);

    runner.parallelFor(48, [&](std::size_t i) {
        (void)runner.mii(suite[i % suite.size()].graph, m);
    });
    const SingleFlightStats bounds = runner.memoStats().bounds;
    EXPECT_EQ(bounds.requests, 48);
    EXPECT_EQ(bounds.entries, long(suite.size()));
    EXPECT_EQ(bounds.computes - bounds.entries, 0)
        << "two workers raced to compute one key's MII";

    const std::vector<BatchJob> jobs = mixedGrid(suite.size());
    (void)runner.run(suite, m, jobs);
    const SingleFlightStats sched = runner.memoStats().schedule;
    EXPECT_GT(sched.requests, 0);
    EXPECT_EQ(sched.computes - sched.entries, 0)
        << "two workers raced to schedule one probe";
}

TEST(SuiteRunner, PoolSurvivesAFailedBatchAndRunsAgain)
{
    // The persistent pool must come back clean after a batch whose jobs
    // throw: the next dispatch reuses the same threads and completes.
    SuiteRunner runner(4);
    EXPECT_THROW(runner.parallelFor(64,
                                    [](std::size_t i) {
                                        if (i % 7 == 3)
                                            throw std::runtime_error("x");
                                    }),
                 std::runtime_error);

    std::vector<int> hits(500, 0);
    runner.parallelFor(hits.size(),
                       [&](std::size_t i) { hits[i] += int(i) + 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], int(i) + 1) << i;
}

TEST(SuiteRunner, NestedParallelForRunsInlineWithoutDeadlock)
{
    // A job that itself calls parallelFor on the same runner must not
    // deadlock waiting for the pool its own batch occupies.
    SuiteRunner runner(4);
    std::vector<int> outer(16, 0);
    runner.parallelFor(outer.size(), [&](std::size_t i) {
        int inner = 0;
        runner.parallelFor(8, [&](std::size_t) { ++inner; });
        outer[i] = inner;
    });
    for (std::size_t i = 0; i < outer.size(); ++i)
        EXPECT_EQ(outer[i], 8) << i;
}

TEST(Fingerprint, EquivalenceMatchesFingerprintCoverage)
{
    // The debug collision check compares exactly the structure the
    // fingerprints hash: scheduling-relevant differences break
    // equivalence, irrelevant ones (node names) do not.
    const std::vector<SuiteLoop> suite = testSuite(2);
    const Ddg &a = suite[0].graph;
    EXPECT_TRUE(graphsFingerprintEquivalent(a, a));

    Ddg sameStructure = a;
    sameStructure.node(0).name = "renamed";
    EXPECT_TRUE(graphsFingerprintEquivalent(a, sameStructure));
    EXPECT_EQ(graphFingerprint(a), graphFingerprint(sameStructure));

    Ddg changedDistance = a;
    changedDistance.edge(0).distance += 1;
    EXPECT_FALSE(graphsFingerprintEquivalent(a, changedDistance));
    EXPECT_NE(graphFingerprint(a), graphFingerprint(changedDistance));

    EXPECT_FALSE(graphsFingerprintEquivalent(a, suite[1].graph));

    const Machine p2l4 = Machine::p2l4();
    EXPECT_TRUE(p2l4 == Machine::p2l4());
    EXPECT_FALSE(p2l4 == Machine::p2l6());
    EXPECT_FALSE(Machine::universal("m", 8, 2) ==
                 Machine::universal("m", 1, 2));
}

TEST(Fingerprint, KeyWitnessPanicsOnACollision)
{
    const std::vector<SuiteLoop> suite = testSuite(2);
    const Ddg &a = suite[0].graph;
    const Machine m = Machine::p2l4();
    const KeyWitness witness(true, a, m);
    witness.check("test memo", a, m);
    EXPECT_THROW(witness.check("test memo", suite[1].graph, m), PanicError);
    EXPECT_THROW(witness.check("test memo", a, Machine::p2l6()),
                 PanicError);
    // A memo that does not verify its keys records nothing to check.
    KeyWitness(false, a, m).check("test memo", suite[1].graph, m);
}

TEST(SuiteRunner, ParallelForCoversEveryIndexOnce)
{
    SuiteRunner runner(8);
    std::vector<int> hits(1000, 0);
    runner.parallelFor(hits.size(),
                       [&](std::size_t i) { hits[i] += int(i) + 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], int(i) + 1) << i;
}

TEST(SuiteRunner, ExceptionsPropagateToTheCaller)
{
    SuiteRunner runner(4);
    EXPECT_THROW(runner.parallelFor(64,
                                    [](std::size_t i) {
                                        if (i == 17)
                                            throw std::runtime_error("x");
                                    }),
                 std::runtime_error);
}

TEST(SuiteRunner, ZeroThreadsSelectsHardwareConcurrency)
{
    SuiteRunner runner(0);
    EXPECT_GE(runner.threads(), 1);
}

TEST(SuiteRunner, PlanIsAHeaviestFirstPermutation)
{
    const std::vector<SuiteLoop> suite = testSuite(24);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());
    SuiteRunner runner(1);

    const std::vector<std::size_t> order =
        runner.planJobs(suite, m, jobs).order;
    ASSERT_EQ(order.size(), jobs.size());
    std::vector<bool> seen(jobs.size(), false);
    double prev = std::numeric_limits<double>::infinity();
    for (const std::size_t i : order) {
        ASSERT_LT(i, jobs.size());
        EXPECT_FALSE(seen[i]) << "index " << i << " planned twice";
        seen[i] = true;
        const double cost = referenceJobCost(suite, m, jobs[i]);
        EXPECT_LE(cost, prev) << "order is not heaviest-first at " << i;
        prev = cost;
    }

    // The plan is deterministic.
    EXPECT_EQ(order, runner.planJobs(suite, m, jobs).order);
}

TEST(SuiteRunner, OneBoundsRequestPerDistinctLoop)
{
    // The plan looks up each distinct loop's MII once and hands it to
    // both the cost ranking and the jobs: a run makes exactly one
    // bounds-memo request per distinct loop, however many jobs name it.
    const std::vector<SuiteLoop> suite = testSuite(20);
    const Machine m = Machine::p2l4();
    std::vector<BatchJob> jobs = mixedGrid(suite.size());
    const std::vector<BatchJob> grid = jobs;
    for (const BatchJob &job : grid) {
        if (job.loop % 3 == 0)
            jobs.push_back(job);  // Loops named by more jobs.
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].loop %= 15;  // Loops 15..19 are named by no job.

    SuiteRunner runner(4);
    (void)runner.run(suite, m, jobs);
    const SingleFlightStats bounds = runner.memoStats().bounds;
    EXPECT_EQ(bounds.requests, 15);
    EXPECT_EQ(bounds.computes, 15);
}

TEST(SuiteRunner, PlanNeverReordersResultsOnRandomGrids)
{
    // Property/fuzz over seeded random DDG suites: whatever the cost
    // model decides, results stay slot-addressed and byte-identical
    // across thread counts.
    for (const std::uint64_t seed : {1ull, 99ull, 0xdecafull}) {
        SuiteParams params;
        params.seed = seed;
        params.numLoops = 8;
        const std::vector<SuiteLoop> suite = generateSuite(params);
        const Machine m = Machine::p1l4();
        const std::vector<BatchJob> jobs = mixedGrid(suite.size());

        SuiteRunner serial(1);
        const auto baseline = serial.run(suite, m, jobs);
        SuiteRunner pooled(4);
        const auto results = pooled.run(suite, m, jobs);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectIdenticalResults(baseline[i], results[i], i);
    }
}

TEST(SuiteRunner, HeaviestFirstOrderingImprovesHeavyTailLoadSpread)
{
    // The load-balance claim behind the heaviest-first plan, asserted on
    // the pool's work-stealing model (one job per claim): the plan of a
    // real grid never yields a worse simulated makespan than grid order.
    // The toy heavy-tail case is covered by
    // StealingModelBeatsStaticPartitionAndConservesWork.
    const int workers = 4;
    const auto makespan = [](const std::vector<double> &loads) {
        return *std::max_element(loads.begin(), loads.end());
    };
    const std::vector<SuiteLoop> suite = testSuite(32);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());
    SuiteRunner runner(1);
    std::vector<double> gridCosts(jobs.size());
    std::vector<std::size_t> byIndex(jobs.size());
    std::iota(byIndex.begin(), byIndex.end(), 0);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        gridCosts[i] = referenceJobCost(suite, m, jobs[i]);
    const std::vector<std::size_t> planned =
        runner.planJobs(suite, m, jobs).order;
    EXPECT_LE(
        makespan(simulateWorkerLoadsStealing(gridCosts, planned, workers)),
        makespan(simulateWorkerLoadsStealing(gridCosts, byIndex, workers)));
}

TEST(SuiteRunner, StripedMemosStayByteIdenticalAcrossThreadCounts)
{
    // The striping regression: both memos stripe by thread count, yet
    // every result matches the serial run, and the aggregated stripe
    // stats still show no duplicate computation.
    const std::vector<SuiteLoop> suite = testSuite(16);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner serial(1);
    SuiteRunner pooled(8);

    // next-pow2(2 x threads).
    EXPECT_EQ(serial.scheduleMemo().stripeCount(), 2u);
    EXPECT_EQ(pooled.scheduleMemo().stripeCount(), 16u);
    EXPECT_EQ(serial.boundsStripeCount(), 2u);
    EXPECT_EQ(pooled.boundsStripeCount(), 16u);

    const auto a = serial.run(suite, m, jobs);
    const auto b = pooled.run(suite, m, jobs);
    ASSERT_EQ(a.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdenticalResults(a[i], b[i], i);

    const SingleFlightStats sched = pooled.memoStats().schedule;
    EXPECT_EQ(sched.computes, sched.entries)
        << "striping broke the single-flight accounting";
    const SingleFlightStats bounds = pooled.memoStats().bounds;
    EXPECT_EQ(bounds.computes, bounds.entries);
}

TEST(SuiteRunner, WorkStealingDeterministicAcrossInterleavings)
{
    // Results must not depend on which worker claims or steals which
    // job. 20 seeded permutations of the job list, spread over 2, 3, 5
    // and 8 threads, change the plan's tie order, how the jobs are
    // dealt into the deques and how many workers race for them; every
    // job's result must match the serial result of that same job
    // byte-for-byte.
    const std::vector<SuiteLoop> suite = testSuite(10);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner serial(1);
    const auto baseline = serial.run(suite, m, jobs);

    const int threadCounts[] = {2, 3, 5, 8};
    Rng rng(0x57ea15ull);
    std::vector<std::size_t> perm(jobs.size());
    std::iota(perm.begin(), perm.end(), std::size_t(0));
    for (int round = 0; round < 20; ++round) {
        for (std::size_t i = perm.size(); i > 1; --i) {
            const int j = rng.range(0, int(i) - 1);
            std::swap(perm[i - 1], perm[std::size_t(j)]);
        }
        std::vector<BatchJob> permuted;
        for (const std::size_t i : perm)
            permuted.push_back(jobs[i]);

        SuiteRunner pooled(threadCounts[round % 4]);
        const auto results = pooled.run(suite, m, permuted);
        ASSERT_EQ(results.size(), jobs.size()) << "round " << round;
        for (std::size_t k = 0; k < results.size(); ++k)
            expectIdenticalResults(baseline[perm[k]], results[k], perm[k]);
    }
}

TEST(SuiteRunner, StealingModelBeatsStaticPartitionAndConservesWork)
{
    // The load-balance claim behind work-stealing, on a heavy-tailed
    // grid: with the heavy jobs at the fronts of two workers' deques,
    // the idle workers drain the rest of those deques from the back, so
    // the makespan drops to a heavy job itself instead of a whole
    // static partition.
    const int workers = 4;
    std::vector<double> costs(64, 1.0);
    for (std::size_t i = 0; i < 2; ++i)
        costs[i] = 40.0; // Heavy head (plan order is heaviest-first).

    std::vector<std::size_t> heavyFirst(costs.size());
    std::iota(heavyFirst.begin(), heavyFirst.end(), 0);
    std::vector<std::size_t> heavyLast(heavyFirst.rbegin(),
                                       heavyFirst.rend());

    const auto makespan = [](const std::vector<double> &loads) {
        return *std::max_element(loads.begin(), loads.end());
    };
    const double total = std::accumulate(costs.begin(), costs.end(), 0.0);

    // Static partitioning: grid order, one ceil(n/workers) block each.
    const std::size_t block =
        (costs.size() + std::size_t(workers) - 1) / std::size_t(workers);
    std::vector<double> staticLoads(std::size_t(workers), 0.0);
    for (std::size_t k = 0; k < heavyLast.size(); ++k)
        staticLoads[k / block] += costs[heavyLast[k]];

    const std::vector<double> stealing =
        simulateWorkerLoadsStealing(costs, heavyFirst, workers);
    EXPECT_LT(makespan(stealing), makespan(staticLoads));

    // Heaviest-first seeding matters for stealing too: a heavy job
    // buried at the back of its owner's deque is claimed too late for
    // anyone to help with the rest.
    const std::vector<double> buried =
        simulateWorkerLoadsStealing(costs, heavyLast, workers);
    EXPECT_LT(makespan(stealing), makespan(buried));

    // Stealing executes all the work exactly once, at any worker count.
    for (const int w : {1, 2, 4, 7}) {
        const std::vector<double> loads =
            simulateWorkerLoadsStealing(costs, heavyFirst, w);
        ASSERT_EQ(loads.size(), std::size_t(w));
        EXPECT_DOUBLE_EQ(std::accumulate(loads.begin(), loads.end(), 0.0),
                         total)
            << "workers " << w;
    }
}

TEST(SuiteRunner, WorkerPerfCountsEveryJobOnce)
{
    const std::vector<SuiteLoop> suite = testSuite(8);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    // Perf counts every dispatched work item: the grid's jobs plus
    // the planner's per-distinct-loop bounds prefetch.
    const long expected = long(jobs.size()) + long(suite.size());

    SuiteRunner pooled(4);
    (void)pooled.run(suite, m, jobs);
    long jobsSeen = 0, claims = 0;
    double schedule = 0;
    for (const WorkerPerf &w : pooled.workerPerf()) {
        jobsSeen += w.jobs;
        claims += w.claims;
        schedule += w.scheduleSeconds;
        EXPECT_GE(w.memoWaitSeconds, 0.0);
        EXPECT_GE(w.stealSeconds, 0.0);
    }
    EXPECT_EQ(jobsSeen, expected);
    EXPECT_EQ(claims, jobsSeen) << "a pooled claim takes exactly one job";
    EXPECT_GT(schedule, 0.0);

    pooled.resetWorkerPerf();
    for (const WorkerPerf &w : pooled.workerPerf()) {
        EXPECT_EQ(w.jobs, 0);
        EXPECT_EQ(w.claims, 0);
        EXPECT_EQ(w.scheduleSeconds, 0.0);
    }

    // The serial path accounts on worker slot 0.
    SuiteRunner serial(1);
    (void)serial.run(suite, m, jobs);
    const std::vector<WorkerPerf> sp = serial.workerPerf();
    ASSERT_EQ(sp.size(), 1u);
    EXPECT_EQ(sp[0].jobs, expected);
    EXPECT_EQ(sp[0].steals, 0);
}

/**
 * Offer args[0] to parseRunFlag as argv[i] of a command line; renders
 * whether it was taken, the index i was left on, the flags that moved
 * off their defaults, and the diagnostic.
 */
std::string
parseFlag(const std::vector<std::string> &args)
{
    std::vector<const char *> argv;
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    RunFlags f;
    int i = 0;
    std::string error;
    const bool mine = parseRunFlag(int(argv.size()), argv.data(), i, f,
                                   error);
    std::string out = std::string(mine ? "mine" : "not mine") + " @" +
                      std::to_string(i);
    if (f.threads != 1)
        out += " threads=" + std::to_string(f.threads);
    if (f.seed)
        out += " seed=" + std::to_string(*f.seed);
    if (f.verify)
        out += " verify";
    if (f.certify)
        out += " certify";
    if (f.machine)
        out += " machine=" + f.machine->name();
    return error.empty() ? out : out + ": " + error;
}

TEST(RunFlags, EveryFlagAcceptsItsGrammarAndRejectsTheRest)
{
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"--threads", "auto"}, "mine @1 threads=0"},
            {{"--threads", "0"}, "mine @1 threads=0"},
            {{"--threads", "8"}, "mine @1 threads=8"},
            {{"--threads", "4096"}, "mine @1 threads=4096"},
            {{"--threads"}, "mine @0: missing argument for --threads"},
            {{"--threads", ""}, "mine @1: bad --threads count "},
            {{"--threads", "eight"}, "mine @1: bad --threads count eight"},
            {{"--threads", "-1"}, "mine @1: bad --threads count -1"},
            {{"--threads", "8x"}, "mine @1: bad --threads count 8x"},
            {{"--threads", "4097"}, "mine @1: bad --threads count 4097"},
            {{"--threads", "AUTO"}, "mine @1: bad --threads count AUTO"},
            {{"--seed", "0"}, "mine @1 seed=0"},
            {{"--seed", "0x5eedDECADE"}, "mine @1 seed=407717726942"},
            {{"--seed", "18446744073709551615"},
             "mine @1 seed=18446744073709551615"},
            {{"--seed"}, "mine @0: missing argument for --seed"},
            {{"--seed", "-1"}, "mine @1: bad --seed value -1"},
            {{"--seed", "12x"}, "mine @1: bad --seed value 12x"},
            {{"--seed", "18446744073709551616"},
             "mine @1: bad --seed value 18446744073709551616"},
            {{"--verify"}, "mine @0 verify"},
            {{"--certify"}, "mine @0 certify"},
            {{"--machine", "p1l4"}, "mine @1 machine=P1L4"},
            {{"--machine", "p2l4"}, "mine @1 machine=P2L4"},
            {{"--machine", "p2l6"}, "mine @1 machine=P2L6"},
            {{"--machine", "universal"}, "mine @1 machine=universal"},
            {{"--machine"}, "mine @0: missing argument for --machine"},
            // The front ends' own flags are left to them, untouched.
            {{"--json", "x.json"}, "not mine @0"},
            {{"--memo", "0"}, "not mine @0"},
            {{"--registers", "16"}, "not mine @0"},
            {{"--threads=4"}, "not mine @0"},
            {{"threads"}, "not mine @0"},
        };
    for (const auto &[args, want] : cases)
        EXPECT_EQ(parseFlag(args), want);

    // A spec that does not resolve carries machdesc's own diagnostic.
    EXPECT_NE(parseFlag({"--machine", "nosuch"})
                  .find("mine @1: fatal: cannot read machine description "
                        "file 'nosuch' (presets: p1l4, p2l4, p2l6, "
                        "universal)"),
              std::string::npos);
}

TEST(SuiteRunner, ResultsReferenceSuiteGraphsUnlessTransformed)
{
    // The lean PipelineResult must not copy the input Ddg: an untouched
    // loop's result points straight into the suite.
    const std::vector<SuiteLoop> suite = testSuite(6);
    const Machine m = Machine::p2l4();
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        BatchJob job;
        job.loop = int(i);
        job.strategy = Strategy::Ideal;
        jobs.push_back(job);
    }
    SuiteRunner runner(2);
    const auto results = runner.run(suite, m, jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].ownsGraph()) << i;
        EXPECT_EQ(&results[i].graph(), &suite[i].graph) << i;
    }
}

} // namespace
} // namespace swp
