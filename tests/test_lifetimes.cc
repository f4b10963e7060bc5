/**
 * @file
 * Lifetime analysis tests, anchored on the paper's worked example:
 * Figure 2 (II=1, 11 registers) and Figure 3 (II=2, 7 registers),
 * including the LTSch/LTDist decomposition of Section 2.4.
 */

#include <gtest/gtest.h>

#include <string>

#include "ir/builder.hh"
#include "liferange/lifetimes.hh"
#include "machine/machine.hh"
#include "sched/schedule.hh"
#include "support/diag.hh"

namespace swp
{
namespace
{

/** The paper's flat schedule for Figure 2c: Ld@0, *@2, +@4, St@6. */
Schedule
paperFlatSchedule(int ii)
{
    Schedule s(ii, 4);
    s.set(0, 0, 0);  // Ld
    s.set(1, 2, 1);  // *
    s.set(2, 4, 2);  // +
    s.set(3, 6, 3);  // St
    return s;
}

TEST(Lifetimes, PaperExampleIi1RequiresElevenRegisters)
{
    const Ddg g = buildPaperExampleLoop();
    const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(1));

    // V1 = Ld's value: defined at 0, last used by '+' at 4 with
    // distance 3 => end 4 + 3*1 = 7.
    EXPECT_EQ(info.of(0).start, 0);
    EXPECT_EQ(info.of(0).end, 7);
    EXPECT_EQ(info.of(0).schedComponent, 4);
    EXPECT_EQ(info.of(0).distComponent, 3);

    // V2 = *'s value and V3 = +'s value: both 2 cycles.
    EXPECT_EQ(info.of(1).length(), 2);
    EXPECT_EQ(info.of(2).length(), 2);

    // The store produces nothing.
    EXPECT_FALSE(info.of(3).live);

    // Figure 2f: 11 simultaneously live loop variants.
    EXPECT_EQ(info.maxLive, 11);

    // Plus the invariant 'a'.
    EXPECT_EQ(info.invariantCount, 1);
    EXPECT_EQ(info.totalRegisterBound(), 12);
}

TEST(Lifetimes, PaperExampleIi2RequiresSevenRegisters)
{
    const Ddg g = buildPaperExampleLoop();
    const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(2));

    // Scheduling components unchanged, distance component doubles
    // (Section 3: LTDist(V1) grows from 3 to 6).
    EXPECT_EQ(info.of(0).schedComponent, 4);
    EXPECT_EQ(info.of(0).distComponent, 6);
    EXPECT_EQ(info.of(0).length(), 10);

    // Figure 3d: 7 registers for loop variants.
    EXPECT_EQ(info.maxLive, 7);
}

TEST(Lifetimes, DistanceComponentIsIiInvariantInRegisters)
{
    // A self-recurrent accumulator at distance 2 always needs 2
    // registers for the distance component, whatever the II.
    DdgBuilder b("acc");
    const NodeId ld = b.load("ld");
    const NodeId add = b.add("acc");
    const NodeId st = b.store("st");
    b.flow(ld, add);
    b.flow(add, add, 2);
    b.flow(add, st);
    const Ddg g = b.take();

    for (int ii = 2; ii <= 12; ++ii) {
        Schedule s(ii, 3);
        s.set(ld, 0, 0);
        s.set(add, 2, 0);
        s.set(st, 6, 0);
        const LifetimeInfo info = analyzeLifetimes(g, s);
        // The accumulator's lifetime is dominated by its own reuse at
        // distance 2 when 2*ii >= 4: LT = 2*ii => exactly 2 registers
        // at every row.
        EXPECT_GE(info.of(add).length(), 2 * ii) << "ii=" << ii;
        EXPECT_GE(info.maxLive, 2) << "ii=" << ii;
    }
}

TEST(Lifetimes, DeadValuesContributeNothing)
{
    DdgBuilder b("dead");
    const NodeId ld = b.load("ld");
    const NodeId st = b.store("st");
    const NodeId ld2 = b.load("dead_ld");
    b.flow(ld, st);
    (void)ld2;  // No consumers.
    const Ddg g = b.take();

    Schedule s(1, 3);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 0, 1);
    const LifetimeInfo info = analyzeLifetimes(g, s);
    EXPECT_FALSE(info.of(ld2).live);
    EXPECT_EQ(info.of(ld).length(), 2);
}

TEST(Lifetimes, OnlyLiveRegisterFlowEdgesAreUses)
{
    // A memory edge and a killed flow edge out of the producer leave
    // its lifetime alone: it ends at the one live register-flow use.
    DdgBuilder b("kinds");
    const NodeId ld = b.load("ld");
    const NodeId a = b.add("a");
    const NodeId st = b.store("st");
    const NodeId late = b.add("late");
    const EdgeId use = b.flow(ld, a);
    b.flow(a, st);
    b.mem(ld, st);
    b.graph().killEdge(b.flow(ld, late));
    const Ddg g = b.take();

    Schedule s(3, 4);
    s.set(ld, 0, 0);
    s.set(a, 2, 0);
    s.set(st, 8, 0);
    s.set(late, 9, 0);
    const LifetimeInfo info = analyzeLifetimes(g, s);
    EXPECT_TRUE(info.of(ld).live);
    EXPECT_EQ(info.of(ld).end, 2);
    EXPECT_EQ(info.of(ld).lastUse, use);
    EXPECT_EQ(info.of(ld).secondEnd, 0);
}

TEST(Lifetimes, PressurePatternSumsToTotalLifetime)
{
    const Ddg g = buildPaperExampleLoop();
    for (int ii = 1; ii <= 4; ++ii) {
        const LifetimeInfo info = analyzeLifetimes(g,
                                                   paperFlatSchedule(ii));
        long sum = 0;
        for (int p : info.pressure)
            sum += p;
        EXPECT_EQ(sum, totalLifetime(info)) << "ii=" << ii;
    }
}

TEST(Lifetimes, MultiUseTakesTheLastConsumer)
{
    DdgBuilder b("multi");
    const NodeId ld = b.load("ld");
    const NodeId a1 = b.add("a1");
    const NodeId a2 = b.add("a2");
    const NodeId st = b.store("st");
    b.flow(ld, a1);
    b.flow(ld, a2);
    b.flow(a1, a2);
    b.flow(a2, st);
    const Ddg g = b.take();

    Schedule s(3, 4);
    s.set(ld, 0, 0);
    s.set(a1, 2, 0);
    s.set(a2, 6, 1);
    s.set(st, 10, 0);
    const LifetimeInfo info = analyzeLifetimes(g, s);
    EXPECT_EQ(info.of(ld).end, 6);
    EXPECT_EQ(info.of(ld).schedComponent, 6);
    EXPECT_EQ(info.of(ld).distComponent, 0);
}

/** Self-loop carried over `distance` iterations, scheduled at II 17. */
LifetimeInfo
analyzeCarriedSelfLoop(int distance)
{
    Ddg g("big3");
    const NodeId a = g.addNode(Opcode::Div, "a");
    const NodeId st = g.addNode(Opcode::Store, "s");
    g.addEdge(a, a, DepKind::RegFlow, distance);
    g.addEdge(a, st, DepKind::RegFlow, 0);
    Schedule s(17, 2);
    s.set(a, 0, 0);
    s.set(st, 17, 0);
    return analyzeLifetimes(g, s);
}

TEST(Lifetimes, CarriedEndAtTheIntLimitIsExact)
{
    // 17 * 126322567 = 2147483639 <= INT_MAX: analysed exactly.
    const LifetimeInfo info = analyzeCarriedSelfLoop(126322567);
    EXPECT_EQ(info.of(0).end, 2147483639);
    EXPECT_EQ(info.of(0).distComponent, 2147483639);
    EXPECT_EQ(info.maxLive, 126322567);
}

TEST(Lifetimes, CarriedEndBeyondIntIsFatal)
{
    // 17 * 2^27 exceeds INT_MAX. Multiplied in int, the carried use
    // wrapped to a negative cycle and was ignored, so the value looked
    // live for one II and needed a single register.
    try {
        analyzeCarriedSelfLoop(134217728);
        FAIL() << "an out-of-range lifetime was accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("loop 'big3': value n0 is live until cycle "
                           "2281701376 at II 17"),
                  std::string::npos)
            << msg;
    }
}

} // namespace
} // namespace swp
