/**
 * @file
 * Parameterized property sweeps beyond the paper's configurations:
 *
 *  - allocator fuzz: random lifetime populations must always pack
 *    conflict-free, never below MaxLive, under every strategy/ordering;
 *  - machine sweep: the full register-constrained pipeline must stay
 *    sound (valid schedules, budget respected, sequential equivalence)
 *    on machine shapes the paper never evaluated, including
 *    non-pipelined multipliers and long-latency memory;
 *  - below RecMII: the drivers never probe there, and the schedulers
 *    do not re-check II >= RecMII, so both must still refuse every
 *    such II on their own, without panicking.
 */

#include <gtest/gtest.h>

#include <string>

#include "pipeliner/pipeliner.hh"
#include "regalloc/mvealloc.hh"
#include "regalloc/rotalloc.hh"
#include "sched/hrms.hh"
#include "sched/ims.hh"
#include "sched/mii.hh"
#include "sim/vliw.hh"
#include "support/rng.hh"
#include "testkit/machines.hh"
#include "verify/legality.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

/**
 * A loop realizing synthetic (start, length) lifetimes: value i is an
 * add, node 2i, issued at `start`, whose one use, the store 2i + 1,
 * issues `length` cycles later. Every unit is 0: only the register
 * layer reads this schedule.
 */
struct LifetimeLoop
{
    Ddg g;
    Schedule s;
};

LifetimeLoop
makeLoop(int ii, const std::vector<std::pair<int, int>> &ranges)
{
    LifetimeLoop loop{Ddg("lifetimes"), Schedule(ii, 2 * int(ranges.size()))};
    for (const auto &[start, length] : ranges) {
        const NodeId def = loop.g.addNode(Opcode::Add);
        const NodeId use = loop.g.addNode(Opcode::Store);
        loop.g.addEdge(def, use, DepKind::RegFlow, 0);
        loop.s.set(def, start, 0);
        loop.s.set(use, start + length, 0);
    }
    return loop;
}

class AllocFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(AllocFuzz, RandomLifetimesAlwaysPackSoundly)
{
    Rng rng(std::uint64_t(GetParam()) * 7919 + 13);
    const int ii = rng.range(2, 12);
    const int numValues = rng.range(3, 40);
    std::vector<std::pair<int, int>> ranges;
    for (int i = 0; i < numValues; ++i) {
        ranges.emplace_back(rng.range(0, 4 * ii),
                            rng.range(1, 6 * ii));
    }
    const LifetimeLoop loop = makeLoop(ii, ranges);
    const LifetimeInfo info = analyzeLifetimes(loop.g, loop.s);

    for (const FitStrategy fit :
         {FitStrategy::EndFit, FitStrategy::FirstFit,
          FitStrategy::BestFit}) {
        const AllocationOutcome out = allocateLoop(info, 512, fit);
        for (const AllocOrder order :
             {AllocOrder::Adjacency, AllocOrder::DescendingLength}) {
            const int regs = minRotatingRegs(info, fit, order, 512);
            ASSERT_LE(regs, 512) << fitStrategyName(fit);
            EXPECT_GE(regs, info.maxLive) << fitStrategyName(fit);
            // One fewer register must fail, or regs was not minimal.
            if (regs > std::max(1, info.maxLive)) {
                EXPECT_EQ(minRotatingRegs(info, fit, order, regs - 1), regs)
                    << fitStrategyName(fit);
            }
            // allocateLoop keeps the tighter of the two orders.
            EXPECT_LE(out.rotating, regs) << fitStrategyName(fit);
        }
        ASSERT_TRUE(out.rotAlloc.ok) << fitStrategyName(fit);
        const VerifyReport report = verifyAllocation(loop.g, loop.s, out);
        EXPECT_TRUE(report.ok())
            << fitStrategyName(fit) << ": " << report.describe();
    }

    // MVE allocation on the same population: valid periods, at least
    // MaxLive registers.
    const MveAllocResult mve = allocateMve(info);
    EXPECT_GE(mve.registers, info.maxLive);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        const int p = mve.period[2 * i];
        ASSERT_GT(p, 0);
        EXPECT_EQ(mve.unroll % p, 0);
        EXPECT_GE(long(p) * ii, long(ranges[i].second));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocFuzz, ::testing::Range(0, 40));

/** Exotic machine shapes (name + machine + budget). */
struct MachineCase
{
    const char *label;
    int memUnits, adders, mults, divsqrt, addMulLat;
    bool pipelinedMult;
    int loadLatency;
    int registers;
};

class MachineSweep : public ::testing::TestWithParam<MachineCase>
{
  protected:
    static Machine
    build(const MachineCase &c)
    {
        const auto n = [](int v) { return std::to_string(v); };
        return editedMachine(
            Machine::p1l4(),
            {"machine custom", "class mem " + n(c.memUnits) + " pipelined",
             "class adder " + n(c.adders) + " pipelined",
             "class mult " + n(c.mults) +
                 (c.pipelinedMult ? " pipelined" : " nonpipelined"),
             "class divsqrt " + n(c.divsqrt) + " nonpipelined",
             "op ld mem " + n(c.loadLatency),
             "op add adder " + n(c.addMulLat),
             "op mul mult " + n(c.addMulLat)});
    }
};

TEST_P(MachineSweep, ConstrainedPipelineStaysSound)
{
    const MachineCase c = GetParam();
    const Machine m = build(c);

    SuiteParams params;
    params.numLoops = 12;
    for (const SuiteLoop &loop : generateSuite(params)) {
        PipelinerOptions opts;
        opts.registers = c.registers;
        opts.multiSelect = true;
        opts.reuseLastIi = true;
        const PipelineResult r =
            pipelineLoop(loop.graph, m, Strategy::Spill, opts);

        std::string why;
        ASSERT_TRUE(validateSchedule(r.graph(), m, r.sched, &why))
            << c.label << " " << loop.graph.name() << ": " << why;
        if (!r.success)
            continue;
        EXPECT_LE(r.alloc.regsRequired, c.registers)
            << c.label << " " << loop.graph.name();
        ASSERT_TRUE(equivalentToSequential(loop.graph, r.graph(), m,
                                           r.sched, r.alloc.rotAlloc, 8,
                                           &why))
            << c.label << " " << loop.graph.name() << ": " << why;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MachineSweep,
    ::testing::Values(
        MachineCase{"wide_short", 4, 4, 4, 2, 2, true, 2, 24},
        MachineCase{"narrow_long", 1, 1, 1, 1, 8, true, 6, 16},
        MachineCase{"unpipelined_mult", 2, 2, 1, 1, 4, false, 2, 24},
        MachineCase{"slow_memory", 2, 2, 2, 1, 4, true, 12, 32},
        MachineCase{"tiny_file", 2, 2, 2, 1, 4, true, 2, 10}),
    [](const ::testing::TestParamInfo<MachineCase> &info) {
        return info.param.label;
    });

TEST(BelowRecMii, BothSchedulersRefuseEverySuiteLoop)
{
    // A complete schedule satisfies every edge: placement enforces the
    // edges between groups and groupsInternallyFeasible those inside
    // one, self edges included. So below RecMII each probe must come
    // back empty, not reach validateSchedule's panic.
    const std::vector<SuiteLoop> suite = generateSuite(SuiteParams{});
    HrmsScheduler hrms;
    ImsScheduler ims;
    ModuloScheduler *const schedulers[] = {&hrms, &ims};
    int probes = 0;
    for (const Machine &m :
         {Machine::p1l4(), Machine::p2l4(), Machine::p2l6()}) {
        for (const SuiteLoop &loop : suite) {
            const int r = recMii(loop.graph, m);
            for (int ii = std::max(1, r - 3); ii < r; ++ii) {
                SCOPED_TRACE(loop.graph.name() + " on " + m.name() +
                             " at II " + std::to_string(ii));
                for (ModuloScheduler *s : schedulers) {
                    std::optional<Schedule> sched;
                    EXPECT_NO_THROW(sched = s->scheduleAt(loop.graph, m, ii))
                        << s->name();
                    EXPECT_FALSE(sched.has_value()) << s->name();
                }
                ++probes;
            }
        }
    }
    EXPECT_GT(probes, 1000);
}

} // namespace
} // namespace swp
