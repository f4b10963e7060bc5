/**
 * @file
 * Register-constrained driver tests: increase-II, iterative spilling
 * (with and without the Section 4.5 accelerators), best-of-all, and the
 * convergence/divergence behaviour the paper reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ir/builder.hh"
#include "pipeliner/pipeliner.hh"
#include "regalloc/rotalloc.hh"
#include "sched/fingerprint.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "sched/sched_memo.hh"
#include "sched/scheduler.hh"
#include "workload/paper_loops.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

TEST(Pipeliner, IdealScheduleOfPaperExample)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    const PipelineResult r = pipelineLoop(g, m, Strategy::Ideal, {});
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.ii(), 1);
    EXPECT_EQ(r.alloc.maxLive, 11);
}

TEST(Pipeliner, IdealStrategyIsThePlainIiSearch)
{
    // Strategy::Ideal runs the II search from MII with the options'
    // scheduler, ignores the register budget and spills nothing.
    EXPECT_STREQ(strategyName(Strategy::Ideal), "ideal");
    const Machine m = Machine::p2l4();
    for (const Ddg &g :
         {buildPaperExampleLoop(), buildApsi47Analogue(),
          buildApsi50Analogue()}) {
        for (const SchedulerKind kind :
             {SchedulerKind::Hrms, SchedulerKind::Ims}) {
            PipelinerOptions opts;
            opts.registers = 1;
            opts.scheduler = kind;
            const PipelineResult viaLoop =
                pipelineLoop(g, m, Strategy::Ideal, opts);
            const int lower = mii(g, m);
            const IiSearchResult search =
                searchIi(*makeScheduler(kind), g, m, lower);
            ASSERT_TRUE(search.sched.has_value()) << g.name();
            const AllocationOutcome alloc = allocateLoop(
                g, *search.sched, std::numeric_limits<int>::max() / 2);
            EXPECT_TRUE(viaLoop.success) << g.name();
            EXPECT_EQ(viaLoop.mii, lower) << g.name();
            EXPECT_EQ(viaLoop.attempts, search.attempts) << g.name();
            EXPECT_EQ(viaLoop.ii(), search.sched->ii()) << g.name();
            EXPECT_EQ(viaLoop.alloc.regsRequired, alloc.regsRequired)
                << g.name();
            EXPECT_EQ(viaLoop.alloc.maxLive, alloc.maxLive) << g.name();
            EXPECT_EQ(viaLoop.spilledLifetimes, 0) << g.name();
            for (NodeId n = 0; n < g.numNodes(); ++n) {
                EXPECT_EQ(viaLoop.sched.time(n), search.sched->time(n))
                    << g.name() << " node " << n;
                EXPECT_EQ(viaLoop.sched.unit(n), search.sched->unit(n))
                    << g.name() << " node " << n;
            }
        }
    }
}

TEST(Pipeliner, IncreaseIiReachesSevenRegisters)
{
    // Figure 3: at II=2 the example loop needs 7 registers (+1 inv).
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    PipelinerOptions opts;
    opts.registers = 9;  // 7 rotating + 1 invariant fits; II=1 doesn't.
    const PipelineResult r = pipelineLoop(g, m, Strategy::IncreaseII,
                                          opts);
    EXPECT_TRUE(r.success);
    EXPECT_FALSE(r.usedFallback);
    EXPECT_EQ(r.ii(), 2);
    EXPECT_LE(r.alloc.regsRequired, 9);
}

TEST(Pipeliner, SpillingBeatsIncreaseIiOnTheExample)
{
    // Section 4.3: with 6 registers, spilling V1 yields II=2 and 5
    // rotating registers, while increase-II needs II=3 or more.
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    PipelinerOptions opts;
    opts.registers = 6;
    opts.heuristic = SpillHeuristic::MaxLT;

    const PipelineResult spill = pipelineLoop(g, m, Strategy::Spill, opts);
    EXPECT_TRUE(spill.success);
    EXPECT_FALSE(spill.usedFallback);
    EXPECT_GT(spill.spilledLifetimes, 0);
    EXPECT_LE(spill.alloc.regsRequired, 6);

    const PipelineResult incr =
        pipelineLoop(g, m, Strategy::IncreaseII, opts);
    EXPECT_TRUE(incr.success);
    EXPECT_GE(incr.ii(), spill.ii());
}

TEST(Pipeliner, SpillResultValidatesAndFits)
{
    const Ddg g = buildApsi47Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 32;
    const PipelineResult r = pipelineLoop(g, m, Strategy::Spill, opts);
    ASSERT_TRUE(r.success);
    EXPECT_LE(r.alloc.regsRequired, 32);
    std::string why;
    EXPECT_TRUE(validateSchedule(r.graph(), m, r.sched, &why)) << why;
    EXPECT_GT(r.spilledLifetimes, 0);
    // Spilling costs II: the final II exceeds the ideal MII.
    EXPECT_GE(r.ii(), mii(g, m));
}

TEST(Pipeliner, Apsi47ConvergesUnderIncreaseIi)
{
    const Ddg g = buildApsi47Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 32;
    const PipelineResult r = pipelineLoop(g, m, Strategy::IncreaseII,
                                          opts);
    EXPECT_TRUE(r.success);
    EXPECT_FALSE(r.usedFallback);
    EXPECT_GT(r.ii(), mii(g, m));  // Had to slow down to fit.
}

TEST(Pipeliner, Apsi50NeverConvergesUnderIncreaseIi)
{
    const Ddg g = buildApsi50Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 32;
    const PipelineResult r = pipelineLoop(g, m, Strategy::IncreaseII,
                                          opts);
    // Falls back to local scheduling, and even that cannot fit the
    // distance components + invariants in 32 registers.
    EXPECT_TRUE(r.usedFallback);
    EXPECT_FALSE(r.success);
}

TEST(Pipeliner, Apsi50ConvergesBySpilling)
{
    const Ddg g = buildApsi50Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 32;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    const PipelineResult r = pipelineLoop(g, m, Strategy::Spill, opts);
    ASSERT_TRUE(r.success) << "spilling must reach 32 registers";
    EXPECT_FALSE(r.usedFallback);
    EXPECT_LE(r.alloc.regsRequired, 32);
    std::string why;
    EXPECT_TRUE(validateSchedule(r.graph(), m, r.sched, &why)) << why;
}

TEST(Pipeliner, Apsi50ConvergesEvenTo16Registers)
{
    const Ddg g = buildApsi50Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 16;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    const PipelineResult r = pipelineLoop(g, m, Strategy::Spill, opts);
    EXPECT_TRUE(r.success);
    EXPECT_LE(r.alloc.regsRequired, 16);
}

TEST(Pipeliner, MultiSelectReducesAttempts)
{
    const Ddg g = buildApsi47Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions slow;
    slow.registers = 24;
    PipelinerOptions fast = slow;
    fast.multiSelect = true;
    fast.reuseLastIi = true;

    const PipelineResult rSlow = pipelineLoop(g, m, Strategy::Spill, slow);
    const PipelineResult rFast = pipelineLoop(g, m, Strategy::Spill, fast);
    ASSERT_TRUE(rSlow.success);
    ASSERT_TRUE(rFast.success);
    EXPECT_LT(rFast.rounds, rSlow.rounds);
    EXPECT_LE(rFast.attempts, rSlow.attempts);
}

TEST(Pipeliner, BestOfAllNeverWorseThanSpill)
{
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 32;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    for (const Ddg &g :
         {buildApsi47Analogue(), buildApsi50Analogue(),
          buildPaperExampleLoop()}) {
        const PipelineResult spill =
            pipelineLoop(g, m, Strategy::Spill, opts);
        const PipelineResult best =
            pipelineLoop(g, m, Strategy::BestOfAll, opts);
        ASSERT_TRUE(best.success) << g.name();
        if (spill.success) {
            EXPECT_LE(best.ii(), spill.ii()) << g.name();
        }
        std::string why;
        EXPECT_TRUE(validateSchedule(best.graph(), m, best.sched, &why))
            << g.name() << ": " << why;
    }
}

TEST(Pipeliner, NoPressureMeansNoSpill)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    PipelinerOptions opts;
    opts.registers = 64;
    const PipelineResult r = pipelineLoop(g, m, Strategy::Spill, opts);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.spilledLifetimes, 0);
    EXPECT_EQ(r.ii(), 1);
    EXPECT_EQ(r.rounds, 1);
}

TEST(Pipeliner, RegistersAtIiSweepIsIiMonotoneForApsi47)
{
    // Figure 4a: the converging loop's requirement decreases (weakly,
    // modulo small scheduler noise) as II grows; check the endpoints.
    const Ddg g = buildApsi47Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    const int lower = mii(g, m);
    const int early = registersAtIi(g, m, lower, opts);
    const int late = registersAtIi(g, m, lower + 20, opts);
    ASSERT_GT(early, 0);
    ASSERT_GT(late, 0);
    EXPECT_GT(early, 32);
    EXPECT_LT(late, early);
}

TEST(Pipeliner, Apsi50FloorIsIiIndependent)
{
    // Figure 4b: the non-converging loop's requirement never drops to
    // 32, no matter the II.
    const Ddg g = buildApsi50Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    const int lower = mii(g, m);
    for (int ii = lower; ii <= lower + 40; ii += 8) {
        const int regs = registersAtIi(g, m, ii, opts);
        if (regs < 0)
            continue;
        EXPECT_GT(regs, 32) << "ii=" << ii;
    }
}

TEST(Pipeliner, SpillKeepsBestScheduleWhenRoundsRunOut)
{
    // Regression: exhausting maxSpillRounds used to discard every
    // modulo schedule found and fall back to acyclic scheduling of the
    // original loop, even though the candidates-exhausted path kept its
    // schedule. The driver must keep the best (lowest register
    // requirement) schedule seen across the rounds.
    const Ddg g = buildApsi47Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 2;  // Nothing fits: every round is over budget.
    opts.heuristic = SpillHeuristic::MaxLT;
    opts.maxSpillRounds = 3;

    int minRegsSeen = std::numeric_limits<int>::max();
    int rounds = 0;
    const PipelineResult r = spillStrategy(
        g, m, opts, [&](const SpillRoundInfo &info) {
            minRegsSeen = std::min(minRegsSeen, info.regsRequired);
            rounds = info.round;
        });

    ASSERT_EQ(rounds, 3) << "expected every round to run and fail";
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(r.usedFallback)
        << "a valid modulo schedule must not be discarded";
    EXPECT_EQ(r.alloc.regsRequired, minRegsSeen)
        << "the kept schedule must be the best seen, not the last";
    EXPECT_GE(r.ii(), r.mii);
    std::string why;
    EXPECT_TRUE(validateSchedule(r.graph(), m, r.sched, &why)) << why;
}

/** Expect two spill results to keep the same schedule and graph. */
void
expectSameSpillResult(const PipelineResult &got, const PipelineResult &want)
{
    EXPECT_EQ(got.success, want.success);
    EXPECT_EQ(got.usedFallback, want.usedFallback);
    EXPECT_EQ(got.ii(), want.ii());
    EXPECT_EQ(got.mii, want.mii);
    EXPECT_EQ(got.alloc.regsRequired, want.alloc.regsRequired);
    EXPECT_EQ(got.alloc.rotAlloc.offset, want.alloc.rotAlloc.offset);
    EXPECT_EQ(got.spilledLifetimes, want.spilledLifetimes);
    EXPECT_EQ(graphFingerprint(got.graph()), graphFingerprint(want.graph()));
}

TEST(Pipeliner, SpillKeepsTheSameBestWithoutAnObserver)
{
    // An observer makes every over-budget round's exact register count
    // known as it happens; without one, the driver allocates the
    // over-budget rounds exactly only when the iteration ends unfit.
    // Both must keep the same schedule.
    const Machine m = Machine::p2l4();
    const auto observed = [&](const Ddg &g, const PipelinerOptions &opts) {
        return spillStrategy(g, m, opts, [](const SpillRoundInfo &) {});
    };

    const Ddg apsi = buildApsi47Analogue();
    PipelinerOptions opts;
    opts.registers = 2;
    opts.heuristic = SpillHeuristic::MaxLT;
    opts.maxSpillRounds = 3;
    {
        SCOPED_TRACE(apsi.name());
        const PipelineResult plain = spillStrategy(apsi, m, opts);
        ASSERT_FALSE(plain.success);
        ASSERT_FALSE(plain.usedFallback);
        expectSameSpillResult(plain, observed(apsi, opts));
    }

    SuiteParams params;
    params.numLoops = 80;
    opts = PipelinerOptions{};
    opts.registers = 4;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    int keptUnfit = 0;
    for (const SuiteLoop &loop : generateSuite(params)) {
        SCOPED_TRACE(loop.graph.name());
        const PipelineResult plain = spillStrategy(loop.graph, m, opts);
        expectSameSpillResult(plain, observed(loop.graph, opts));
        keptUnfit += !plain.success && !plain.usedFallback;
    }
    EXPECT_GT(keptUnfit, 40);
}

TEST(Pipeliner, TightBudgetRowsArePinnedOnSuitePrefix)
{
    // The golden fingerprint runs at budget 32, where few schedules are
    // rejected. This pins the CLI's row fields (loop, fits, II, regs,
    // spills, mem ops) for the first 300 suite loops at budgets that
    // reject most schedules: spill at R=4 and increase-II at R=8, with
    // the CLI's Section 4.5 accelerators.
    SuiteParams params;
    params.numLoops = 300;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    const Machine m = Machine::p2l4();
    Fingerprint fp;
    for (const auto &[strategy, registers] :
         {std::pair{Strategy::Spill, 4}, std::pair{Strategy::IncreaseII, 8}}) {
        PipelinerOptions opts;
        opts.registers = registers;
        opts.multiSelect = true;
        opts.reuseLastIi = true;
        for (const SuiteLoop &loop : suite) {
            const PipelineResult r =
                pipelineLoop(loop.graph, m, strategy, opts);
            fp.mix(loop.graph.name());
            fp.mix(std::uint64_t(r.success));
            fp.mix(std::uint64_t(r.ii()));
            fp.mix(std::uint64_t(r.alloc.regsRequired));
            fp.mix(std::uint64_t(r.spilledLifetimes));
            fp.mix(std::uint64_t(r.memOpsPerIteration()));
        }
    }
    EXPECT_EQ(fp.value(), 0xd16c1e26d9a71923ull);
}

TEST(Pipeliner, SpillFallsBackOnlyWhenAcyclicFits)
{
    // With a budget the acyclic schedule of the original loop can
    // satisfy, exhausting the rounds may still fall back — a fitting
    // result beats an over-budget modulo schedule.
    const Ddg g = buildApsi50Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 2;
    opts.heuristic = SpillHeuristic::MaxLT;
    opts.maxSpillRounds = 2;
    const PipelineResult r = spillStrategy(g, m, opts);
    if (r.usedFallback) {
        EXPECT_TRUE(r.success)
            << "fallback without a fitting allocation is a discard";
    } else {
        std::string why;
        EXPECT_TRUE(validateSchedule(r.graph(), m, r.sched, &why)) << why;
    }
}

TEST(Pipeliner, RegistersAtIiUsesTheImsSafetyNet)
{
    // Suite loop 219 (pinned seed): HRMS's non-backtracking placement
    // fails at MII on P2L4 while IMS succeeds there. registersAtIi must
    // apply the same IMS safety net as the strategy drivers instead of
    // reporting a -1 hole.
    const SuiteLoop loop = generateSuiteLoop(SuiteParams{}, 219);
    const Ddg &g = loop.graph;
    const Machine m = Machine::p2l4();
    const int lower = mii(g, m);

    auto hrms = makeScheduler(SchedulerKind::Hrms);
    auto ims = makeScheduler(SchedulerKind::Ims);
    ASSERT_FALSE(hrms->scheduleAt(g, m, lower).has_value())
        << "precondition: HRMS fails at MII on this loop";
    ASSERT_TRUE(ims->scheduleAt(g, m, lower).has_value())
        << "precondition: IMS succeeds at MII on this loop";

    PipelinerOptions opts;
    EXPECT_GT(registersAtIi(g, m, lower, opts), 0);
}

/** A core scheduler that never places anything. */
class FailingScheduler final : public ModuloScheduler
{
  public:
    std::string name() const override { return "failing"; }

    std::optional<Schedule>
    scheduleAt(const Ddg &, const Machine &, int) override
    {
        return std::nullopt;
    }
};

/** Expect two results to keep the same schedule, graph and allocation. */
void
expectSameSchedule(const PipelineResult &got, const PipelineResult &want)
{
    expectSameSpillResult(got, want);
    EXPECT_EQ(got.rounds, want.rounds);
    ASSERT_EQ(got.graph().numNodes(), want.graph().numNodes());
    for (NodeId n = 0; n < got.graph().numNodes(); ++n) {
        EXPECT_EQ(got.sched.time(n), want.sched.time(n)) << n;
        EXPECT_EQ(got.sched.unit(n), want.sched.unit(n)) << n;
    }
}

TEST(Pipeliner, ImsSafetyNetTakesOverWhenTheCoreAlwaysFails)
{
    // The pinned suite never needs the IMS safety net, so a core that
    // fails at every II forces it: the searches that carry the net must
    // then give exactly the IMS-scheduled result, and the single-II
    // probes of the unspilled loop, which do not, must come up empty.
    const Machine m = Machine::p2l4();
    FailingScheduler failing;
    const std::unique_ptr<ModuloScheduler> ims =
        makeScheduler(SchedulerKind::Ims);
    for (const bool withMemo : {false, true}) {
        for (const Ddg &g :
             {buildPaperExampleLoop(), buildApsi47Analogue(),
              buildApsi50Analogue()}) {
            for (const int registers : {32, 12}) {
                SCOPED_TRACE(g.name() + " R=" + std::to_string(registers) +
                             (withMemo ? " memo" : ""));
                std::optional<ScheduleMemo> memo;
                if (withMemo)
                    memo.emplace(/*verifyKeys=*/true);
                EvalContext ctx;
                ctx.scheduler = &failing;
                ctx.imsFallback = ims.get();
                ctx.memo = memo ? &*memo : nullptr;
                PipelinerOptions opts;
                opts.registers = registers;
                PipelinerOptions imsOpts = opts;
                imsOpts.scheduler = SchedulerKind::Ims;

                for (const Strategy s : {Strategy::Ideal, Strategy::Spill}) {
                    SCOPED_TRACE(strategyName(s));
                    const PipelineResult got =
                        pipelineLoop(g, m, s, opts, &ctx);
                    const PipelineResult want =
                        pipelineLoop(g, m, s, imsOpts);
                    expectSameSchedule(got, want);
                    EXPECT_GT(got.attempts, want.attempts);
                }

                EXPECT_GT(registersAtIi(g, m, mii(g, m), opts, &ctx), 0);

                EXPECT_TRUE(
                    pipelineLoop(g, m, Strategy::IncreaseII, opts, &ctx)
                        .usedFallback);

                // Best-of-all's binary search probes the core alone, so
                // it keeps its spill phase's schedule.
                const PipelineResult spilled =
                    pipelineLoop(g, m, Strategy::Spill, opts, &ctx);
                const PipelineResult best =
                    pipelineLoop(g, m, Strategy::BestOfAll, opts, &ctx);
                expectSameSchedule(best, spilled);
                EXPECT_EQ(best.attempts,
                          spilled.attempts + (spilled.success &&
                                              spilled.spilledLifetimes > 0));
            }
        }
    }
}

/** A (loop, budget) whose best-of-all outcome is the *unspilled* loop
    found by the binary search, while the preceding spill run needed
    multiple rounds (pinned suite seed; verified by preconditions). */
PipelinerOptions
binarySearchWinOptions()
{
    PipelinerOptions opts;
    opts.registers = 16;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    opts.heuristic = SpillHeuristic::MaxLTOverTraf;
    return opts;
}

Ddg
binarySearchWinLoop()
{
    return generateSuiteLoop(SuiteParams{}, 15).graph;
}

TEST(Pipeliner, BestOfAllReportsRoundsOfTheReturnedSchedule)
{
    // Regression: the no-spill result of the binary search used to copy
    // `rounds` from the discarded spill run, so a result that spilled
    // nothing reported multiple spill rounds.
    const Ddg g = binarySearchWinLoop();
    const Machine m = Machine::p2l4();
    const PipelinerOptions opts = binarySearchWinOptions();

    const PipelineResult spill = pipelineLoop(g, m, Strategy::Spill, opts);
    ASSERT_TRUE(spill.success);
    ASSERT_GT(spill.spilledLifetimes, 0)
        << "precondition: the spill run must actually spill";
    ASSERT_GT(spill.rounds, 1)
        << "precondition: the spill run must take several rounds";

    const PipelineResult best =
        pipelineLoop(g, m, Strategy::BestOfAll, opts);
    ASSERT_TRUE(best.success);
    ASSERT_EQ(best.spilledLifetimes, 0)
        << "precondition: the binary search must win with no spilling";
    EXPECT_LE(best.ii(), spill.ii());
    EXPECT_EQ(best.rounds, 1)
        << "a result that spilled nothing reports the discarded spill "
           "run's rounds";
}

/** Records every real scheduler invocation as a (graph, II) probe. */
class CountingScheduler final : public ModuloScheduler
{
  public:
    explicit CountingScheduler(SchedulerKind kind)
        : inner_(makeScheduler(kind))
    {
    }

    std::string name() const override { return inner_->name(); }

    std::optional<Schedule>
    scheduleAt(const Ddg &g, const Machine &m, int ii) override
    {
        probes.emplace_back(graphFingerprint(g), ii);
        return inner_->scheduleAt(g, m, ii);
    }

    std::vector<std::pair<std::uint64_t, int>> probes;

  private:
    std::unique_ptr<ModuloScheduler> inner_;
};

TEST(Pipeliner, BestOfAllWithMemoNeverReschedulesAProbedIi)
{
    const Ddg g = binarySearchWinLoop();
    const Machine m = Machine::p2l4();
    const PipelinerOptions opts = binarySearchWinOptions();

    // Without a memo the binary search re-schedules (graph, II) probes
    // the spill rounds already answered.
    CountingScheduler plainSched(opts.scheduler);
    EvalContext plainCtx;
    plainCtx.scheduler = &plainSched;
    const PipelineResult plain =
        pipelineLoop(g, m, Strategy::BestOfAll, opts, &plainCtx);
    const auto countDuplicates =
        [](const std::vector<std::pair<std::uint64_t, int>> &probes) {
            std::set<std::pair<std::uint64_t, int>> seen;
            int dups = 0;
            for (const auto &p : probes)
                dups += !seen.insert(p).second;
            return dups;
        };
    ASSERT_GT(countDuplicates(plainSched.probes), 0)
        << "precondition: this case must repeat probes without a memo";

    // With the memo every repeated probe is answered from cache: zero
    // scheduler invocations at IIs already probed.
    ScheduleMemo memo(/*verifyKeys=*/true);
    CountingScheduler memoSched(opts.scheduler);
    EvalContext ctx;
    ctx.scheduler = &memoSched;
    ctx.memo = &memo;
    const PipelineResult r =
        pipelineLoop(g, m, Strategy::BestOfAll, opts, &ctx);

    EXPECT_EQ(countDuplicates(memoSched.probes), 0)
        << "the binary search re-scheduled a probe the spill rounds "
           "already tried";
    EXPECT_LT(memoSched.probes.size(), plainSched.probes.size());

    // The memo changes the work, never the answer: the `attempts`
    // compile-effort proxy counts probe *requests* and stays identical,
    // as does everything else about the result.
    EXPECT_EQ(r.attempts, plain.attempts);
    EXPECT_LT(int(memoSched.probes.size()), r.attempts);
    expectSameSchedule(r, plain);
}

TEST(Pipeliner, SpillStrategyResultsIdenticalWithAndWithoutMemo)
{
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 24;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    for (const Ddg &g :
         {buildApsi47Analogue(), buildApsi50Analogue(),
          buildPaperExampleLoop()}) {
        ScheduleMemo memo(/*verifyKeys=*/true);
        EvalContext ctx;
        ctx.memo = &memo;
        const PipelineResult with = spillStrategy(g, m, opts, {}, &ctx);
        const PipelineResult without = spillStrategy(g, m, opts, {});
        EXPECT_EQ(with.success, without.success) << g.name();
        EXPECT_EQ(with.ii(), without.ii()) << g.name();
        EXPECT_EQ(with.attempts, without.attempts) << g.name();
        EXPECT_EQ(with.rounds, without.rounds) << g.name();
        EXPECT_EQ(with.spilledLifetimes, without.spilledLifetimes)
            << g.name();
        EXPECT_EQ(with.alloc.regsRequired, without.alloc.regsRequired)
            << g.name();
        EXPECT_GT(memo.stats().requests, 0) << g.name();
    }
}

TEST(Pipeliner, SpillObserverSeesMonotoneRounds)
{
    const Ddg g = buildApsi47Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions opts;
    opts.registers = 24;
    int lastRound = 0;
    int calls = 0;
    const PipelineResult r = spillStrategy(
        g, m, opts, [&](const SpillRoundInfo &info) {
            EXPECT_EQ(info.round, lastRound + 1);
            lastRound = info.round;
            ++calls;
            EXPECT_GE(info.ii, info.mii);
        });
    ASSERT_TRUE(r.success);
    EXPECT_EQ(calls, r.rounds);
}

} // namespace
} // namespace swp
