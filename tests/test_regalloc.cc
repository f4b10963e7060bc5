/**
 * @file
 * Rotating register allocation tests: the circular-packing conflict
 * model, fit strategies, minimum-register search and the MaxLive bound,
 * plus randomized differentials of the bitset allocator against a naive
 * arc-scan reference. Everything runs through the allocator's entry
 * points (allocateLoop, allocateWithinBudget, minRotatingRegs); a
 * LifetimeInfo whose MaxLive is pinned to R makes the search's first
 * attempt a packing into R registers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "regalloc/rotalloc.hh"
#include "sched/hrms.hh"
#include "sched/mii.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "verify/legality.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

/**
 * Naive reference allocator: the pre-bitset implementation, keeping the
 * occupied arcs in a vector and rescanning all of them for every
 * candidate offset (O(n^2 R) per attempt). The bitset allocator must
 * agree with it on every register count and every offset it reports.
 */
namespace naive
{

struct Arc
{
    long start;
    long len;
};

long
fmod2(long a, long m)
{
    const long r = a % m;
    return r < 0 ? r + m : r;
}

bool
arcsOverlap(long q1, long l1, long q2, long l2, long circ)
{
    if (l1 <= 0 || l2 <= 0)
        return false;
    return fmod2(q2 - q1, circ) < l1 || fmod2(q1 - q2, circ) < l2;
}

long
leftGap(const std::vector<Arc> &occupied, long q, long circ)
{
    long best = circ;
    for (const Arc &a : occupied)
        best = std::min(best, fmod2(q - (a.start + a.len), circ));
    return best;
}

long
rightGap(const std::vector<Arc> &occupied, long q, long len, long circ)
{
    long best = circ;
    for (const Arc &a : occupied)
        best = std::min(best, fmod2(a.start - (q + len), circ));
    return best;
}

RotAllocResult
allocateRotating(const LifetimeInfo &lifetimes, int num_regs,
                 FitStrategy strategy, AllocOrder order)
{
    RotAllocResult result;
    result.offset.assign(lifetimes.lifetimes.size(), -1);
    result.registers = num_regs;

    const long ii = lifetimes.ii;
    const long circ = long(num_regs) * ii;

    std::vector<const Lifetime *> values;
    for (const Lifetime &lt : lifetimes.lifetimes) {
        if (lt.live && lt.length() > 0)
            values.push_back(&lt);
    }

    switch (order) {
      case AllocOrder::Adjacency:
        std::stable_sort(values.begin(), values.end(),
                         [](const Lifetime *a, const Lifetime *b) {
                             if (a->start != b->start)
                                 return a->start < b->start;
                             return a->length() > b->length();
                         });
        break;
      case AllocOrder::DescendingLength:
        std::stable_sort(values.begin(), values.end(),
                         [](const Lifetime *a, const Lifetime *b) {
                             if (a->length() != b->length())
                                 return a->length() > b->length();
                             return a->start < b->start;
                         });
        break;
    }

    std::vector<Arc> occupied;
    for (const Lifetime *lt : values) {
        const long len = lt->length();
        if (len > circ)
            return result;  // A single value exceeds the whole file.

        long bestQ = -1;
        long bestKey = -1;
        for (int o = 0; o < num_regs; ++o) {
            const long q = fmod2(lt->start - long(o) * ii, circ);
            bool fits = true;
            for (const Arc &a : occupied) {
                if (arcsOverlap(q, len, a.start, a.len, circ)) {
                    fits = false;
                    break;
                }
            }
            if (!fits)
                continue;

            long key = 0;
            switch (strategy) {
              case FitStrategy::FirstFit:
                key = 0;  // First feasible offset wins.
                break;
              case FitStrategy::EndFit:
                key = leftGap(occupied, q, circ);
                break;
              case FitStrategy::BestFit:
                key = leftGap(occupied, q, circ) +
                      rightGap(occupied, q, len, circ);
                break;
            }
            if (bestQ < 0 || key < bestKey) {
                bestQ = q;
                bestKey = key;
                result.offset[std::size_t(lt->producer)] = o;
            }
            if (strategy == FitStrategy::FirstFit)
                break;
            if (key == 0)
                break;  // Cannot improve on a zero gap.
        }
        if (bestQ < 0)
            return result;  // No feasible position: allocation fails.
        occupied.push_back({bestQ, len});
    }

    result.ok = true;
    return result;
}

/** True if some value needs a register. */
bool
anyLive(const LifetimeInfo &lifetimes)
{
    for (const Lifetime &lt : lifetimes.lifetimes) {
        if (lt.live && lt.length() > 0)
            return true;
    }
    return false;
}

int
minRotatingRegs(const LifetimeInfo &lifetimes, FitStrategy strategy,
                AllocOrder order, int cap)
{
    if (!anyLive(lifetimes))
        return 0;

    for (int r = std::max(1, lifetimes.maxLive); r <= cap; ++r) {
        if (naive::allocateRotating(lifetimes, r, strategy, order).ok)
            return r;
    }
    return cap + 1;
}

/** Search both orders in full, then re-run the winner's allocation. */
AllocationOutcome
allocateLoop(const LifetimeInfo &info, int budget, FitStrategy strategy)
{
    AllocationOutcome outcome;
    outcome.maxLive = info.maxLive;
    outcome.invariants = info.invariantCount;

    const int maxScalableBudget = std::numeric_limits<int>::max() / 4;
    const int cap =
        budget > maxScalableBudget
            ? std::max(info.maxLive + 64, 64)
            : std::max({budget * 4, info.maxLive + 64, 64});
    AllocOrder order = AllocOrder::Adjacency;
    outcome.rotating = naive::minRotatingRegs(info, strategy, order, cap);
    const int byLength = naive::minRotatingRegs(
        info, strategy, AllocOrder::DescendingLength, cap);
    if (byLength < outcome.rotating) {
        outcome.rotating = byLength;
        order = AllocOrder::DescendingLength;
    }
    if (outcome.rotating <= cap) {
        outcome.rotAlloc =
            naive::allocateRotating(info, outcome.rotating, strategy, order);
    }
    outcome.regsRequired = outcome.rotating + outcome.invariants;
    outcome.fits = outcome.regsRequired <= budget;
    return outcome;
}

} // namespace naive

constexpr FitStrategy kFits[] = {FitStrategy::EndFit, FitStrategy::FirstFit,
                                 FitStrategy::BestFit};
constexpr AllocOrder kOrders[] = {AllocOrder::Adjacency,
                                  AllocOrder::DescendingLength};

void
expectSameOutcome(const AllocationOutcome &got,
                  const AllocationOutcome &want)
{
    EXPECT_EQ(got.rotating, want.rotating);
    EXPECT_EQ(got.regsRequired, want.regsRequired);
    EXPECT_EQ(got.fits, want.fits);
    EXPECT_EQ(got.maxLive, want.maxLive);
    EXPECT_EQ(got.invariants, want.invariants);
    EXPECT_EQ(got.rotAlloc.ok, want.rotAlloc.ok);
    EXPECT_EQ(got.rotAlloc.registers, want.rotAlloc.registers);
    EXPECT_EQ(got.rotAlloc.offset, want.rotAlloc.offset);
}

/** `info` with MaxLive pinned to `regs`, where the search starts. */
LifetimeInfo
pinnedAt(LifetimeInfo info, int regs)
{
    info.maxLive = regs;
    return info;
}

Schedule
paperFlatSchedule(int ii)
{
    Schedule s(ii, 4);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    return s;
}

TEST(RotAlloc, PaperExampleFitsInMaxLive)
{
    const Ddg g = buildPaperExampleLoop();
    for (int ii = 1; ii <= 3; ++ii) {
        const Schedule s = paperFlatSchedule(ii);
        const LifetimeInfo info = analyzeLifetimes(g, s);
        const int regs = minRotatingRegs(info);
        EXPECT_GE(regs, info.maxLive) << "ii=" << ii;
        EXPECT_LE(regs, info.maxLive + 1) << "ii=" << ii;

        const AllocationOutcome out = allocateLoop(g, s, 64);
        ASSERT_TRUE(out.rotAlloc.ok);
        EXPECT_LE(out.rotating, regs) << "ii=" << ii;
        const VerifyReport report = verifyAllocation(g, s, out);
        EXPECT_TRUE(report.ok()) << report.describe();
    }
}

TEST(RotAlloc, FailsBelowMaxLive)
{
    const Ddg g = buildPaperExampleLoop();
    const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(1));
    ASSERT_EQ(info.maxLive, 11);
    EXPECT_LE(minRotatingRegs(info), 12);
    // Ten rotating registers (plus the invariant's) never fit.
    EXPECT_FALSE(allocateLoop(info, 10 + info.invariantCount).fits);
}

TEST(RotAlloc, EveryStrategyProducesConflictFreePacking)
{
    const Ddg g = buildPaperExampleLoop();
    const Schedule s = paperFlatSchedule(2);
    const LifetimeInfo info = analyzeLifetimes(g, s);
    for (FitStrategy strat : {FitStrategy::EndFit, FitStrategy::FirstFit,
                              FitStrategy::BestFit}) {
        const AllocationOutcome out = allocateLoop(g, s, 64, strat);
        ASSERT_TRUE(out.rotAlloc.ok) << fitStrategyName(strat);
        for (AllocOrder order : {AllocOrder::Adjacency,
                                 AllocOrder::DescendingLength}) {
            const int regs = minRotatingRegs(info, strat, order);
            ASSERT_LE(regs, info.maxLive + 2)
                << fitStrategyName(strat);
            // allocateLoop keeps the tighter of the two orders.
            EXPECT_LE(out.rotating, regs) << fitStrategyName(strat);
        }
        const VerifyReport report = verifyAllocation(g, s, out);
        EXPECT_TRUE(report.ok())
            << fitStrategyName(strat) << ": " << report.describe();
    }
}

TEST(RotAlloc, LifetimeLongerThanWholeFileFails)
{
    DdgBuilder b("long");
    const NodeId ld = b.load();
    const NodeId add = b.add();
    b.flow(ld, add, 9);  // Lifetime ~ 9*II.
    const NodeId st = b.store();
    b.flow(add, st);
    const Ddg g = b.take();

    Schedule s(2, 3);
    s.set(ld, 0, 0);
    s.set(add, 2, 0);
    s.set(st, 6, 0);
    const LifetimeInfo info = analyzeLifetimes(g, s);
    ASSERT_GT(info.of(ld).length(), 2 * 8);
    // Nothing up to 8 registers fits: the search reports cap + 1.
    EXPECT_EQ(minRotatingRegs(info, FitStrategy::EndFit,
                              AllocOrder::Adjacency, 8),
              9);
    EXPECT_TRUE(minRotatingRegs(info) >= 10);
}

TEST(RotAlloc, AllocationOutcomeAddsInvariants)
{
    const Ddg g = buildPaperExampleLoop();  // One invariant 'a'.
    const Schedule s = paperFlatSchedule(2);
    const AllocationOutcome out = allocateLoop(g, s, 32);
    EXPECT_TRUE(out.fits);
    EXPECT_EQ(out.invariants, 1);
    EXPECT_EQ(out.regsRequired, out.rotating + 1);
    EXPECT_GE(out.rotating, out.maxLive);

    const AllocationOutcome tight = allocateLoop(g, s, out.regsRequired);
    EXPECT_TRUE(tight.fits);
    const AllocationOutcome tooTight =
        allocateLoop(g, s, out.regsRequired - 1);
    EXPECT_FALSE(tooTight.fits);
}

TEST(RotAlloc, DeadAndZeroLengthValuesNeedNoRegister)
{
    DdgBuilder b("dead");
    const NodeId ld = b.load();
    const NodeId st = b.store();
    b.flow(ld, st);
    const NodeId deadLd = b.load("dead");
    (void)deadLd;
    const Ddg g = b.take();

    Schedule s(1, 3);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 0, 1);
    const RotAllocResult alloc = allocateLoop(g, s, 64).rotAlloc;
    EXPECT_TRUE(alloc.ok);
    EXPECT_EQ(alloc.offset[std::size_t(deadLd)], -1);
    EXPECT_GE(alloc.offset[std::size_t(ld)], 0);
}

TEST(RotAlloc, EndFitTracksMaxLiveOnScheduledLoops)
{
    // Property: on real HRMS schedules, end-fit adjacency allocation
    // stays within MaxLive + 1 (the paper's [26] observation).
    const Machine m = Machine::p2l4();
    HrmsScheduler hrms;
    const Ddg g = buildPaperExampleLoop();
    for (int ii = mii(g, m); ii <= mii(g, m) + 8; ++ii) {
        const auto s = hrms.scheduleAt(g, m, ii);
        ASSERT_TRUE(s.has_value());
        const LifetimeInfo info = analyzeLifetimes(g, *s);
        const int regs = minRotatingRegs(info);
        EXPECT_LE(regs, info.maxLive + 1) << "ii=" << ii;
    }
}

/**
 * Random lifetimes on an II-periodic circle: starts anywhere (so arcs
 * wrap), lengths from 0 to the whole circle, some values dead.
 */
LifetimeInfo
randomLifetimes(Rng &rng, int ii, int circ)
{
    LifetimeInfo info;
    info.ii = ii;
    const int n = rng.range(1, 24);
    for (int v = 0; v < n; ++v) {
        Lifetime lt;
        lt.producer = v;
        lt.live = !rng.chance(0.1);
        lt.start = rng.range(-2 * circ, 3 * circ);
        const int shape = rng.range(0, 9);
        const int len = shape == 0   ? circ
                        : shape == 1 ? rng.range(0, 2 * circ)
                        : shape <= 4 ? rng.range(1, std::max(1, circ / 2))
                                     : rng.range(1, std::max(1, circ / 8));
        lt.end = lt.start + len;
        info.lifetimes.push_back(lt);
    }
    return info;
}

TEST(RotAlloc, DifferentialAgainstNaiveReference)
{
    // (II, R) pairs putting the circle C = R*II on and around word
    // boundaries, II = 1, and a few random shapes.
    struct Circle
    {
        int ii;
        int regs;
    };
    std::vector<Circle> circles = {
        {1, 1},  {1, 5},   {1, 63},  {1, 64},  {1, 65},  {3, 21},
        {2, 32}, {5, 13},  {1, 128}, {4, 32},  {1, 129}, {3, 43},
        {7, 9},  {16, 8},  {2, 100}, {11, 30},
    };
    Rng rng(0xa110c);
    for (int extra = 0; extra < 16; ++extra)
        circles.push_back({rng.range(1, 12), rng.range(1, 40)});

    int succeeded = 0, failed = 0;
    for (const Circle &c : circles) {
        const int circ = c.ii * c.regs;
        for (int trial = 0; trial < 32; ++trial) {
            const LifetimeInfo info =
                pinnedAt(randomLifetimes(rng, c.ii, circ), c.regs);
            for (const FitStrategy fit : kFits) {
                SCOPED_TRACE(::testing::Message()
                             << "ii=" << c.ii << " R=" << c.regs
                             << " fit=" << fitStrategyName(fit)
                             << " trial=" << trial);
                // One packing into R registers per order...
                RotAllocResult want[2];
                for (int k = 0; k < 2; ++k) {
                    want[k] = naive::allocateRotating(info, c.regs, fit,
                                                      kOrders[k]);
                    EXPECT_EQ(minRotatingRegs(info, fit, kOrders[k],
                                              c.regs) <= c.regs,
                              want[k].ok)
                        << (k == 0 ? "adjacency" : "length");
                    (want[k].ok ? succeeded : failed)++;
                }
                // ...and a budget of R keeps the first order that fits,
                // offsets included.
                const RotAllocResult &first = want[0].ok ? want[0] : want[1];
                const std::optional<AllocationOutcome> got =
                    allocateWithinBudget(info, c.regs, fit);
                ASSERT_EQ(got.has_value(), first.ok);
                if (got) {
                    EXPECT_EQ(got->rotating,
                              naive::anyLive(info) ? c.regs : 0);
                    EXPECT_EQ(got->rotAlloc.offset, first.offset);
                }
            }
        }
    }
    // Both outcomes are exercised, not just one.
    EXPECT_GT(succeeded, 100);
    EXPECT_GT(failed, 100);
}

TEST(RotAlloc, LifetimeSpanningWholeCircle)
{
    // len == C fits alone, and blocks every other value.
    for (const int regs : {1, 63, 64, 65}) {
        LifetimeInfo info;
        info.ii = 1;
        Lifetime whole;
        whole.producer = 0;
        whole.live = true;
        whole.start = 5;
        whole.end = 5 + regs;
        info.lifetimes.push_back(whole);
        // The search tries 1, 2, ... registers: the first fit is R.
        for (const FitStrategy fit : kFits)
            EXPECT_EQ(minRotatingRegs(info, fit), regs);
        Lifetime other = whole;
        other.producer = 1;
        other.end = other.start + 1;
        info.lifetimes.push_back(other);
        const LifetimeInfo atRegs = pinnedAt(info, regs);
        for (const FitStrategy fit : kFits) {
            EXPECT_FALSE(naive::allocateRotating(atRegs, regs, fit,
                                                 AllocOrder::Adjacency)
                             .ok);
            EXPECT_EQ(minRotatingRegs(atRegs, fit, AllocOrder::Adjacency,
                                      regs),
                      regs + 1);
            const AllocationOutcome out = allocateLoop(atRegs, regs, fit);
            EXPECT_EQ(out.rotating, regs + 1);
            expectSameOutcome(out, naive::allocateLoop(atRegs, regs, fit));
        }
    }
}

TEST(RotAlloc, NoRegistersFitOnlyNoValues)
{
    LifetimeInfo empty;
    empty.ii = 3;
    Lifetime dead;
    dead.producer = 0;
    empty.lifetimes.push_back(dead);
    LifetimeInfo one = empty;
    one.lifetimes[0].live = true;
    one.lifetimes[0].end = 4;

    for (const FitStrategy fit : kFits) {
        EXPECT_EQ(minRotatingRegs(empty, fit), 0);
        const std::optional<AllocationOutcome> none =
            allocateWithinBudget(empty, 0, fit);
        ASSERT_TRUE(none.has_value());
        EXPECT_EQ(none->rotating, 0);
        EXPECT_TRUE(none->rotAlloc.ok);
        EXPECT_EQ(none->rotAlloc.registers, 0);
        EXPECT_EQ(none->rotAlloc.offset, std::vector<int>{-1});
        EXPECT_FALSE(allocateWithinBudget(one, 0, fit).has_value());
        EXPECT_FALSE(allocateLoop(one, 0, fit).fits);
        for (const int budget : {-1, -64}) {
            EXPECT_FALSE(allocateWithinBudget(empty, budget, fit).has_value());
            EXPECT_FALSE(allocateWithinBudget(one, budget, fit).has_value());
        }
    }
}

TEST(RotAlloc, CircleBeyondBitRowSizeIsDiagnosed)
{
    // R*II is computed in long; a circle larger than a bit row can
    // index panics instead of wrapping around int.
    LifetimeInfo info;
    info.ii = 1 << 16;
    Lifetime lt;
    lt.producer = 0;
    lt.live = true;
    lt.end = 1;
    info.lifetimes.push_back(lt);
    EXPECT_THROW(minRotatingRegs(pinnedAt(info, 1 << 16),
                                 FitStrategy::EndFit, AllocOrder::Adjacency,
                                 1 << 16),
                 PanicError);
}

TEST(RotAlloc, AllocateLoopMatchesNaiveSearchOnSuiteSchedules)
{
    // The search reuses sorted orders and its winning allocation and
    // stops descending length below adjacency's count; the outcome must
    // equal searching both orders in full and re-running the winner.
    SuiteParams params;
    params.numLoops = 160;
    const Machine m = Machine::p2l4();
    HrmsScheduler hrms;
    int compared = 0, fitting = 0;
    for (const SuiteLoop &loop : generateSuite(params)) {
        const auto s = hrms.scheduleAt(loop.graph, m, mii(loop.graph, m));
        if (!s)
            continue;
        for (const int budget : {12, 16, 24, 32, 48, 64}) {
            for (const FitStrategy fit : kFits) {
                const AllocationOutcome got =
                    allocateLoop(loop.graph, *s, budget, fit);
                SCOPED_TRACE(::testing::Message()
                             << loop.graph.name() << " budget=" << budget
                             << " fit=" << fitStrategyName(fit));
                expectSameOutcome(
                    got, naive::allocateLoop(
                             analyzeLifetimes(loop.graph, *s), budget, fit));
                ++compared;
                fitting += got.fits;
            }
        }
    }
    EXPECT_GT(compared, 2000);
    EXPECT_GT(fitting, 0);
    EXPECT_LT(fitting, compared);
}

TEST(RotAlloc, WithinBudgetMatchesAllocateLoopOnSuiteSchedules)
{
    // The budget-bounded search must answer exactly when the exact one
    // fits, with the exact outcome, offsets included. Budgets straddle
    // MaxLive and MaxLive + invariants, where the bound starts to cut.
    const Machine m = Machine::p2l4();
    HrmsScheduler hrms;
    int fitting = 0, unfit = 0, searchedUnfit = 0;
    for (const SuiteLoop &loop : generateSuite(SuiteParams{})) {
        const auto s = hrms.scheduleAt(loop.graph, m, mii(loop.graph, m));
        if (!s)
            continue;
        const LifetimeInfo info = analyzeLifetimes(loop.graph, *s);
        const int ml = info.maxLive;
        for (const int budget :
             {0, 1, ml - 1, ml, ml + 1, ml + info.invariantCount, 32, 64,
              std::numeric_limits<int>::max() / 2}) {
            for (const FitStrategy fit : kFits) {
                const AllocationOutcome want =
                    allocateLoop(loop.graph, *s, budget, fit);
                const std::optional<AllocationOutcome> got =
                    allocateWithinBudget(info, budget, fit);
                SCOPED_TRACE(::testing::Message()
                             << loop.graph.name() << " budget=" << budget
                             << " fit=" << fitStrategyName(fit));
                ASSERT_EQ(got.has_value(), want.fits);
                if (!got) {
                    ++unfit;
                    searchedUnfit += info.totalRegisterBound() <= budget;
                    continue;
                }
                expectSameOutcome(*got, want);
                ++fitting;
            }
        }
    }
    EXPECT_GT(fitting, 14000);
    EXPECT_GT(unfit, 18000);
    // Over budget although MaxLive + invariants fit: the bounded
    // search itself, not the MaxLive test, rejected these.
    EXPECT_GT(searchedUnfit, 1000);
}

} // namespace
} // namespace swp
