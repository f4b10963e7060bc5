/**
 * @file
 * Integration and property tests: the full register-constrained
 * pipeline over generated loops, checked end-to-end.
 *
 * For each sampled loop, machine and register budget, the property is:
 *  (a) the driver returns a schedule that validates structurally;
 *  (b) when it claims success, the allocation fits the budget and is
 *      conflict free;
 *  (c) the pipelined execution of the (possibly spilled) loop produces
 *      exactly the store streams of the sequential original.
 */

#include <gtest/gtest.h>

#include "pipeliner/pipeliner.hh"
#include "regalloc/rotalloc.hh"
#include "sim/vliw.hh"
#include "verify/legality.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

struct Case
{
    int loopIndex;
    int budget;
};

class PipelineProperty : public ::testing::TestWithParam<Case>
{
  protected:
    static SuiteLoop
    loopFor(int index)
    {
        SuiteParams params;
        params.numLoops = index + 1;
        return generateSuiteLoop(params, index);
    }
};

TEST_P(PipelineProperty, SpillStrategyIsSoundAndExecutesCorrectly)
{
    const Case c = GetParam();
    const SuiteLoop loop = loopFor(c.loopIndex);
    const Machine machines[] = {Machine::p1l4(), Machine::p2l4(),
                                Machine::p2l6()};

    for (const Machine &m : machines) {
        PipelinerOptions opts;
        opts.registers = c.budget;
        opts.multiSelect = true;
        opts.reuseLastIi = true;
        const PipelineResult r =
            pipelineLoop(loop.graph, m, Strategy::Spill, opts);

        std::string why;
        ASSERT_TRUE(validateSchedule(r.graph(), m, r.sched, &why))
            << loop.graph.name() << " on " << m.name() << ": " << why;

        if (!r.success)
            continue;  // Divergence is allowed; soundness is not.

        EXPECT_LE(r.alloc.regsRequired, c.budget)
            << loop.graph.name() << " on " << m.name();
        const VerifyReport alloc =
            verifyAllocation(r.graph(), r.sched, r.alloc);
        EXPECT_TRUE(alloc.ok())
            << loop.graph.name() << " on " << m.name() << ": "
            << alloc.describe();

        ASSERT_TRUE(equivalentToSequential(loop.graph, r.graph(), m,
                                           r.sched, r.alloc.rotAlloc, 12,
                                           &why))
            << loop.graph.name() << " on " << m.name() << ": " << why;
    }
}

TEST_P(PipelineProperty, IncreaseIiIsSoundWhenItConverges)
{
    const Case c = GetParam();
    const SuiteLoop loop = loopFor(c.loopIndex);
    const Machine m = Machine::p2l4();

    PipelinerOptions opts;
    opts.registers = c.budget;
    const PipelineResult r =
        pipelineLoop(loop.graph, m, Strategy::IncreaseII, opts);

    std::string why;
    ASSERT_TRUE(validateSchedule(r.graph(), m, r.sched, &why))
        << loop.graph.name() << ": " << why;
    if (r.success) {
        EXPECT_LE(r.alloc.regsRequired, c.budget);
        ASSERT_TRUE(equivalentToSequential(loop.graph, r.graph(), m,
                                           r.sched, r.alloc.rotAlloc, 12,
                                           &why))
            << loop.graph.name() << ": " << why;
    }
}

TEST_P(PipelineProperty, BestOfAllMatchesOrBeatsSpill)
{
    const Case c = GetParam();
    const SuiteLoop loop = loopFor(c.loopIndex);
    const Machine m = Machine::p2l6();

    PipelinerOptions opts;
    opts.registers = c.budget;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    const PipelineResult spill =
        pipelineLoop(loop.graph, m, Strategy::Spill, opts);
    const PipelineResult best =
        pipelineLoop(loop.graph, m, Strategy::BestOfAll, opts);

    if (spill.success && !spill.usedFallback) {
        ASSERT_TRUE(best.success) << loop.graph.name();
        EXPECT_LE(best.ii(), spill.ii()) << loop.graph.name();
    }
}

std::vector<Case>
makeCases()
{
    std::vector<Case> cases;
    for (int loop = 0; loop < 18; ++loop) {
        cases.push_back({loop, 32});
        cases.push_back({loop, 16});
    }
    for (int loop = 18; loop < 24; ++loop)
        cases.push_back({loop, 64});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SuiteSample, PipelineProperty, ::testing::ValuesIn(makeCases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return "loop" + std::to_string(info.param.loopIndex) + "_r" +
               std::to_string(info.param.budget);
    });

TEST(Integration, IdealPipelineOverSuiteSampleIsValidEverywhere)
{
    SuiteParams params;
    params.numLoops = 40;
    const auto suite = generateSuite(params);
    const Machine machines[] = {Machine::p1l4(), Machine::p2l4(),
                                Machine::p2l6()};
    for (const Machine &m : machines) {
        for (const SuiteLoop &loop : suite) {
            const PipelineResult r = pipelineLoop(loop.graph, m, Strategy::Ideal, {});
            ASSERT_TRUE(r.success) << loop.graph.name();
            std::string why;
            ASSERT_TRUE(validateSchedule(loop.graph, m, r.sched, &why))
                << loop.graph.name() << " on " << m.name() << ": "
                << why;
        }
    }
}

TEST(Integration, SchedulerAgnosticSpilling)
{
    // The paper's claim: the spilling framework works with any core
    // scheduler. Run the same constrained problem under IMS.
    SuiteParams params;
    params.numLoops = 12;
    const auto suite = generateSuite(params);
    const Machine m = Machine::p2l4();
    for (const SuiteLoop &loop : suite) {
        PipelinerOptions opts;
        opts.registers = 16;
        opts.scheduler = SchedulerKind::Ims;
        opts.multiSelect = true;
        opts.reuseLastIi = true;
        const PipelineResult r =
            pipelineLoop(loop.graph, m, Strategy::Spill, opts);
        std::string why;
        ASSERT_TRUE(validateSchedule(r.graph(), m, r.sched, &why))
            << loop.graph.name() << ": " << why;
        if (r.success) {
            EXPECT_LE(r.alloc.regsRequired, 16) << loop.graph.name();
            ASSERT_TRUE(equivalentToSequential(loop.graph, r.graph(), m,
                                               r.sched, r.alloc.rotAlloc,
                                               10, &why))
                << loop.graph.name() << ": " << why;
        }
    }
}

} // namespace
} // namespace swp
