/**
 * @file
 * Schedule container and validator tests.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "sched/schedule.hh"

namespace swp
{
namespace
{

TEST(Schedule, FloorMathHandlesNegatives)
{
    EXPECT_EQ(Schedule::floorMod(-1, 4), 3);
    EXPECT_EQ(Schedule::floorMod(-4, 4), 0);
    EXPECT_EQ(Schedule::floorMod(5, 4), 1);
    EXPECT_EQ(Schedule::floorDiv(-1, 4), -1);
    EXPECT_EQ(Schedule::floorDiv(-4, 4), -1);
    EXPECT_EQ(Schedule::floorDiv(7, 4), 1);
}

TEST(Schedule, RowsStagesAndNormalization)
{
    Schedule s(3, 2);
    s.set(0, -2, 0);
    s.set(1, 4, 0);
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.row(0), 1);
    EXPECT_EQ(s.stage(0), -1);
    EXPECT_EQ(s.minTime(), -2);
    EXPECT_EQ(s.stageCount(), 3);  // Stages -1..1.
    s.normalize();
    EXPECT_EQ(s.time(0), 0);
    EXPECT_EQ(s.time(1), 6);
    EXPECT_EQ(s.stageCount(), 3);
}

TEST(Schedule, ClearMakesIncomplete)
{
    Schedule s(2, 1);
    EXPECT_FALSE(s.complete());
    s.set(0, 5, 1);
    EXPECT_TRUE(s.complete());
    s.clear(0);
    EXPECT_FALSE(s.scheduled(0));
}

TEST(ValidateSchedule, AcceptsThePaperSchedule)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(1, 4);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, s, &why)) << why;
}

TEST(ValidateSchedule, CatchesDependenceViolation)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(1, 4);
    s.set(0, 0, 0);
    s.set(1, 1, 1);  // '*' issued 1 cycle after Ld: latency is 2.
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_NE(why.find("dependence"), std::string::npos);
}

TEST(ValidateSchedule, CatchesResourceConflict)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(1, 4);
    s.set(0, 0, 0);
    s.set(1, 2, 0);  // Same unit, same (single) row as everything.
    s.set(2, 4, 0);
    s.set(3, 6, 3);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_NE(why.find("conflict"), std::string::npos);
}

TEST(ValidateSchedule, CatchesCarriedDependenceViolation)
{
    DdgBuilder b("carried");
    const NodeId a = b.add("a");
    b.flow(a, a, 1);
    const NodeId st = b.store("st");
    b.flow(a, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();  // add latency 4.

    Schedule s(3, 2);  // II=3 < RecMII=4: the self dep must fail.
    s.set(a, 0, 0);
    s.set(st, 4, 0);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
}

TEST(ValidateSchedule, CatchesFusedOffsetViolation)
{
    DdgBuilder b("fused");
    const NodeId ld = b.load("ld");
    const NodeId add = b.add("add");
    const NodeId st = b.store("st");
    b.graph().addEdge(ld, add, DepKind::RegFlow, 0, true);
    b.flow(add, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(4, 3);
    s.set(ld, 0, 0);
    s.set(add, 3, 0);  // Must be exactly latency(ld)=2 after.
    s.set(st, 8, 1);   // Unit 1: row 0 of mem unit 0 is the load's.
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_NE(why.find("fused"), std::string::npos);

    s.set(add, 2, 0);
    EXPECT_TRUE(validateSchedule(g, m, s, &why)) << why;
}

TEST(ValidateSchedule, CatchesNonPipelinedSelfOverlap)
{
    DdgBuilder b("dv");
    const NodeId ld = b.load();
    const NodeId dv = b.div();
    const NodeId st = b.store();
    b.flow(ld, dv);
    b.flow(dv, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(10, 3);  // Divide occupancy 17 > II.
    s.set(ld, 0, 0);
    s.set(dv, 2, 0);
    s.set(st, 19, 0);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_NE(why.find("occupies"), std::string::npos);
}

// The tests below pin validateSchedule's full diagnostic text, one per
// failure kind, so a rewrite of the checker keeps every message and the
// order in which the checks run.

TEST(ValidateScheduleText, DependenceViolation)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(1, 4);
    s.set(0, 0, 0);
    s.set(1, 1, 1);
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "dependence Ld -> * violated: t=1 < 2");
}

TEST(ValidateScheduleText, FusedOffset)
{
    DdgBuilder b("fused");
    const NodeId ld = b.load("ld");
    const NodeId add = b.add("add");
    const NodeId st = b.store("st");
    b.graph().addEdge(ld, add, DepKind::RegFlow, 0, true);
    b.flow(add, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(4, 3);
    s.set(ld, 0, 0);
    s.set(add, 3, 0);
    s.set(st, 8, 1);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "fused edge ld -> add not at exact offset 2");
}

TEST(ValidateScheduleText, ConflictNamesTheLowerNodeFirst)
{
    // Node order, not issue order, decides who claimed the slot: the
    // later-issued `a` (node 0) is named before `b` (node 1).
    DdgBuilder b("pair");
    const NodeId a = b.add("a");
    const NodeId c = b.add("b");
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(3, 2);
    s.set(a, 7, 1);
    s.set(c, 1, 1);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "resource conflict on adder unit 1 row 1: a vs b");

    s.set(c, 1, 0);  // The other adder frees the conflict.
    EXPECT_TRUE(validateSchedule(g, m, s, &why)) << why;
}

TEST(ValidateScheduleText, NonPipelinedOccupancyWrapsToRowZero)
{
    // A latency-3 divide issued at row II-1 = 3 occupies rows 3, 0, 1
    // of its unit; the second divide at row 1 meets its wrapped tail.
    DdgBuilder b("wrap");
    const NodeId d1 = b.div("d1");
    const NodeId d2 = b.div("d2");
    const Ddg g = b.take();
    Machine m = Machine::p2l4();
    m.setLatency(Opcode::Div, 3);

    Schedule s(4, 2);
    s.set(d1, 3, 0);
    s.set(d2, 5, 0);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "resource conflict on divsqrt unit 0 row 1: d1 vs d2");

    s.set(d2, 6, 0);  // Rows 2, 3, 0: still overlaps the wrapped tail.
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "resource conflict on divsqrt unit 0 row 3: d1 vs d2");

    s.set(d2, 6, 1);
    EXPECT_TRUE(validateSchedule(g, m, s, &why)) << why;
}

TEST(ValidateScheduleText, BadUnit)
{
    DdgBuilder b("units");
    const NodeId ld = b.load("ld");
    const NodeId st = b.store("st");
    b.flow(ld, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(2, 2);
    s.set(ld, 0, 2);
    s.set(st, 2, 0);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "node ld has bad unit 2");

    s.set(ld, 0, 0);
    s.set(st, 2, -1);
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "node st has bad unit -1");
}

TEST(ValidateScheduleText, OccupancyAboveIi)
{
    DdgBuilder b("dv");
    const NodeId ld = b.load("ld");
    const NodeId dv = b.div("dv");
    const NodeId st = b.store("st");
    b.flow(ld, dv);
    b.flow(dv, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(10, 3);
    s.set(ld, 0, 0);
    s.set(dv, 2, 0);
    s.set(st, 19, 0);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "node dv occupies its unit 17 cycles > II=10");
}

TEST(ValidateScheduleText, ChecksRunInOrder)
{
    // Dependences are checked before resources, and the first failing
    // node wins among resource checks: the bad unit of node 0 is
    // reported before node 1's occupancy.
    DdgBuilder b("order");
    const NodeId ld = b.load("ld");
    const NodeId dv = b.div("dv");
    b.flow(ld, dv);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(4, 2);
    s.set(ld, 0, 5);
    s.set(dv, 1, 0);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "dependence ld -> dv violated: t=1 < 2");
    s.set(dv, 2, 0);
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "node ld has bad unit 5");
    s.set(ld, 0, 0);
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "node dv occupies its unit 17 cycles > II=4");
}

TEST(ValidateSchedule, CarriedBoundDoesNotOverflowInt)
{
    // II * distance = 17 * 2^27 exceeds INT_MAX: the bound must be
    // computed wide, so this legal schedule validates.
    Ddg g("big3");
    const NodeId a = g.addNode(Opcode::Div, "a");
    const NodeId st = g.addNode(Opcode::Store, "s");
    g.addEdge(a, a, DepKind::RegFlow, 134217728);
    g.addEdge(a, st, DepKind::RegFlow, 0);
    const Machine m = Machine::p2l4();

    Schedule s(17, 2);
    s.set(a, 0, 0);
    s.set(st, 17, 0);
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, s, &why)) << why;

    s.set(st, 16, 0);
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_EQ(why, "dependence a -> s violated: t=16 < 17");
}

TEST(FormatSchedule, MentionsKernelAndCycles)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(2, 4);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    const std::string text = formatSchedule(g, m, s);
    EXPECT_NE(text.find("II=2"), std::string::npos);
    EXPECT_NE(text.find("kernel"), std::string::npos);
    EXPECT_NE(text.find("Ld"), std::string::npos);
}

} // namespace
} // namespace swp
