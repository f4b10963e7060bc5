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
#include "sched/fingerprint.hh"
#include "sched/mii.hh"
#include "sched/sched_memo.hh"

namespace swp
{
namespace
{

TEST(Machine, P1L4Shape)
{
    const Machine m = Machine::p1l4();
    EXPECT_EQ(m.unitsFor(FuClass::Mem), 1);
    EXPECT_EQ(m.unitsFor(FuClass::Adder), 1);
    EXPECT_EQ(m.unitsFor(FuClass::Mult), 1);
    EXPECT_EQ(m.unitsFor(FuClass::DivSqrt), 1);
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
    for (int fu = 0; fu < numFuClasses; ++fu)
        EXPECT_EQ(m.unitsFor(FuClass(fu)), 2);
    EXPECT_EQ(Machine::p2l6().latency(Opcode::Add), 6);
    EXPECT_EQ(Machine::p2l6().latency(Opcode::Mul), 6);
}

TEST(Machine, DivSqrtNotPipelined)
{
    const Machine m = Machine::p2l4();
    EXPECT_FALSE(m.pipelinedClass(FuClass::DivSqrt));
    EXPECT_EQ(m.occupancy(Opcode::Div), 17);
    EXPECT_EQ(m.occupancy(Opcode::Sqrt), 30);
    EXPECT_EQ(m.occupancy(Opcode::Add), 1);
    EXPECT_EQ(m.occupancy(Opcode::Load), 1);
}

TEST(Machine, UniversalMachineForTheWorkedExample)
{
    const Machine m = Machine::universal("fig2", 4, 2);
    EXPECT_TRUE(m.isUniversal());
    EXPECT_EQ(m.unitsFor(FuClass::Mem), 4);
    EXPECT_EQ(m.unitsFor(FuClass::DivSqrt), 4);
    EXPECT_EQ(m.latency(Opcode::Mul), 2);
    EXPECT_EQ(m.occupancy(Opcode::Div), 1);  // Universal = pipelined.
}

TEST(Machine, Overrides)
{
    Machine m = Machine::p1l4();
    m.setLatency(Opcode::Add, 9);
    EXPECT_EQ(m.latency(Opcode::Add), 9);
    m.setPipelined(FuClass::Mult, false);
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
    EXPECT_TRUE(Machine::p2l4() != Machine::p2l6());
    Machine m = Machine::p2l4();
    m.setLatency(Opcode::Add, 5);
    EXPECT_TRUE(m != Machine::p2l4());
}

TEST(Machine, StoredFingerprintFollowsMutations)
{
    // The memos key every request on the stored fingerprint, so each
    // mutator must refresh it: a probe on the mutated machine is a new
    // key, never a hit on the old machine's entry.
    const Ddg g = buildPaperExampleLoop();
    Machine m = Machine::p2l4();
    const Machine copy = m;
    EXPECT_EQ(machineFingerprint(copy), machineFingerprint(m));

    ScheduleMemo memo(/*verifyKeys=*/true);
    const std::unique_ptr<ModuloScheduler> hrms =
        makeScheduler(SchedulerKind::Hrms);
    const int ii = mii(g, m) + 2;
    const auto probe = [&] {
        (void)memo.scheduleAt(*hrms, SchedulerKind::Hrms, g, m, ii);
        return memo.stats().computes;
    };
    EXPECT_EQ(probe(), 1);
    EXPECT_EQ(probe(), 1);  // Same machine: a hit.

    std::uint64_t before = machineFingerprint(m);
    m.setLatency(Opcode::Add, 5);
    EXPECT_NE(machineFingerprint(m), before);
    EXPECT_EQ(machineFingerprint(m), machineContentFingerprint(m));
    EXPECT_EQ(probe(), 2);

    before = machineFingerprint(m);
    m.setPipelined(FuClass::Mult, false);
    EXPECT_NE(machineFingerprint(m), before);
    EXPECT_EQ(machineFingerprint(m), machineContentFingerprint(m));
    EXPECT_EQ(probe(), 3);

    // Copies carry the mutated value; the source copy kept its own.
    const Machine mutatedCopy = m;
    EXPECT_EQ(machineFingerprint(mutatedCopy), machineFingerprint(m));
    EXPECT_EQ(machineFingerprint(copy),
              machineFingerprint(Machine::p2l4()));
    EXPECT_NE(machineFingerprint(copy), machineFingerprint(m));
}

TEST(Machine, DescribeMentionsName)
{
    EXPECT_NE(Machine::p2l6().describe().find("P2L6"), std::string::npos);
    EXPECT_NE(Machine::universal("u", 4, 2).describe().find("universal"),
              std::string::npos);
}

} // namespace
} // namespace swp
