/**
 * @file
 * Machine-model tests: the Section 5 configurations, occupancy rules,
 * and the stored content fingerprint.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "ir/builder.hh"
#include "machine/machdesc.hh"
#include "machine/machine.hh"
#include "sched/mii.hh"
#include "sched/sched_memo.hh"
#include "testkit/machines.hh"

namespace swp
{
namespace
{

TEST(Machine, P1L4Shape)
{
    const Machine m = Machine::p1l4();
    ASSERT_EQ(m.numClasses(), 4);
    for (const Opcode op :
         {Opcode::Load, Opcode::Add, Opcode::Mul, Opcode::Div}) {
        EXPECT_EQ(m.unitsInClass(m.classOf(op)), 1) << opcodeName(op);
    }
    EXPECT_EQ(m.latency(Opcode::Add), 4);
    EXPECT_EQ(m.latency(Opcode::Mul), 4);
}

TEST(Machine, CommonLatencies)
{
    for (const Machine &m :
         {Machine::p1l4(), Machine::p2l4(), Machine::p2l6()}) {
        EXPECT_EQ(m.latency(Opcode::Store), 1) << m.name();
        EXPECT_EQ(m.latency(Opcode::Load), 2) << m.name();
        EXPECT_EQ(m.latency(Opcode::Div), 17) << m.name();
        EXPECT_EQ(m.latency(Opcode::Sqrt), 30) << m.name();
    }
}

TEST(Machine, P2ConfigsDoubleEveryUnit)
{
    const Machine m = Machine::p2l4();
    ASSERT_EQ(m.numClasses(), 4);
    for (int c = 0; c < m.numClasses(); ++c)
        EXPECT_EQ(m.unitsInClass(c), 2);
    EXPECT_EQ(Machine::p2l6().latency(Opcode::Add), 6);
    EXPECT_EQ(Machine::p2l6().latency(Opcode::Mul), 6);
}

TEST(Machine, DivSqrtNotPipelined)
{
    const Machine m = Machine::p2l4();
    EXPECT_FALSE(m.pipelinedClass(m.classOf(Opcode::Div)));
    EXPECT_EQ(m.occupancy(Opcode::Div), 17);
    EXPECT_EQ(m.occupancy(Opcode::Sqrt), 30);
    EXPECT_EQ(m.occupancy(Opcode::Add), 1);
    EXPECT_EQ(m.occupancy(Opcode::Load), 1);
}

TEST(Machine, UniversalMachineForTheWorkedExample)
{
    const Machine m = Machine::universal("fig2", 4, 2);
    EXPECT_TRUE(m.isUniversal());
    EXPECT_EQ(m.unitsInClass(m.classOf(Opcode::Load)), 4);
    EXPECT_EQ(m.unitsInClass(m.classOf(Opcode::Div)), 4);
    EXPECT_EQ(m.latency(Opcode::Mul), 2);
    EXPECT_EQ(m.occupancy(Opcode::Div), 1);  // Universal = pipelined.
}

TEST(Machine, Overrides)
{
    const Machine m = editedMachine(
        Machine::p1l4(), {"op add adder 9", "class mult 1 nonpipelined"});
    EXPECT_EQ(m.latency(Opcode::Add), 9);
    EXPECT_EQ(m.occupancy(Opcode::Mul), 4);
}

TEST(Machine, DynamicClassTables)
{
    const Machine m = Machine::p2l4();
    ASSERT_EQ(m.numClasses(), 4);
    EXPECT_EQ(m.className(0), "mem");
    EXPECT_EQ(m.className(3), "divsqrt");
    EXPECT_EQ(m.classOf(Opcode::Load), 0);
    EXPECT_EQ(m.classOf(Opcode::Store), 0);
    EXPECT_EQ(m.classOf(Opcode::Mul), 2);
    EXPECT_EQ(m.classOf(Opcode::Div), 3);
    EXPECT_EQ(m.unitsInClass(0), 2);
    EXPECT_FALSE(m.pipelinedClass(3));

    const Machine u = Machine::universal("u", 4, 2);
    ASSERT_EQ(u.numClasses(), 1);
    for (int op = 0; op < numOpcodes; ++op)
        EXPECT_EQ(u.classOf(Opcode(op)), 0);
}

TEST(Machine, EqualityComparesContent)
{
    EXPECT_TRUE(Machine::p2l4() == Machine::p2l4());
    EXPECT_FALSE(Machine::p2l4() == Machine::p2l6());
    const Machine m = editedMachine(Machine::p2l4(), {"op add adder 5"});
    EXPECT_FALSE(m == Machine::p2l4());
}

TEST(Machine, StoredFingerprintKeysTheMemo)
{
    // The memos key every request on the stored fingerprint, so a
    // machine that differs in one latency or one class's pipelining is
    // a new key, never a hit on another machine's entry.
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::p2l4();
    const Machine copy = m;
    EXPECT_EQ(copy.fingerprint(), m.fingerprint());

    ScheduleMemo memo(/*verifyKeys=*/true);
    const std::unique_ptr<ModuloScheduler> hrms =
        makeScheduler(SchedulerKind::Hrms);
    const int ii = mii(g, m) + 2;
    const auto probe = [&](const Machine &on) {
        (void)memo.scheduleAt(*hrms, SchedulerKind::Hrms, g, on, ii);
        return memo.stats().computes;
    };
    EXPECT_EQ(probe(m), 1);
    EXPECT_EQ(probe(copy), 1);  // Same machine: a hit.

    const Machine slowAdd = editedMachine(m, {"op add adder 5"});
    EXPECT_NE(slowAdd.fingerprint(), m.fingerprint());
    EXPECT_EQ(slowAdd.fingerprint(), machineContentFingerprint(slowAdd));
    EXPECT_EQ(probe(slowAdd), 2);

    const Machine unpiped =
        editedMachine(slowAdd, {"class mult 2 nonpipelined"});
    EXPECT_NE(unpiped.fingerprint(), slowAdd.fingerprint());
    EXPECT_EQ(unpiped.fingerprint(), machineContentFingerprint(unpiped));
    EXPECT_EQ(probe(unpiped), 3);

    // Copies carry their source's value.
    const Machine unpipedCopy = unpiped;
    EXPECT_EQ(unpipedCopy.fingerprint(), unpiped.fingerprint());
    EXPECT_EQ(copy.fingerprint(), Machine::p2l4().fingerprint());
    EXPECT_NE(copy.fingerprint(), unpiped.fingerprint());
}

TEST(Machine, DescribeMentionsName)
{
    EXPECT_NE(Machine::p2l6().describe().find("P2L6"), std::string::npos);
    EXPECT_NE(Machine::universal("u", 4, 2).describe().find("universal"),
              std::string::npos);
}

} // namespace
} // namespace swp
