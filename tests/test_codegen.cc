/**
 * @file
 * Kernel generation tests: folding, stage tags, prologue/epilogue
 * structure and modulo variable expansion.
 */

#include <gtest/gtest.h>

#include "codegen/kernel.hh"
#include "codegen/visualize.hh"
#include "ir/builder.hh"
#include "pipeliner/pipeliner.hh"
#include "workload/paper_loops.hh"

namespace swp
{
namespace
{

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

TEST(Kernel, FoldsEveryOpExactlyOnce)
{
    const Ddg g = buildPaperExampleLoop();
    const Schedule s = paperFlatSchedule(2);
    const KernelCode k = buildKernel(g, s);
    EXPECT_EQ(k.ii, 2);
    EXPECT_EQ(k.stageCount, 4);  // Cycles 0..6 at II=2: stages 0..3.
    int ops = 0;
    for (const auto &row : k.rows)
        ops += int(row.size());
    EXPECT_EQ(ops, 4);
    ASSERT_EQ(k.rows.size(), 2u);
    // All four ops land in row 0 (times 0,2,4,6 are all even).
    EXPECT_EQ(k.rows[0].size(), 4u);
    EXPECT_TRUE(k.rows[1].empty());
    // Stage tags 0..3 in order.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(k.rows[0][std::size_t(i)].stage, i);
}

TEST(Kernel, PaperExampleKernelAtIiOneHasSevenStages)
{
    // Figure 2e: the II=1 kernel holds all 4 ops with stages 0,2,4,6.
    const Ddg g = buildPaperExampleLoop();
    const KernelCode k = buildKernel(g, paperFlatSchedule(1));
    EXPECT_EQ(k.stageCount, 7);
    ASSERT_EQ(k.rows.size(), 1u);
    EXPECT_EQ(k.rows[0].size(), 4u);
}

TEST(Kernel, MveUnrollFactorIsMaxCeilLtOverIi)
{
    const Ddg g = buildPaperExampleLoop();
    // II=1: V1 lives 7 cycles -> 7 names; II=2: LT 10 -> 5 names.
    EXPECT_EQ(mveUnrollFactor(
                  analyzeLifetimes(g, paperFlatSchedule(1))), 7);
    EXPECT_EQ(mveUnrollFactor(
                  analyzeLifetimes(g, paperFlatSchedule(2))), 5);
}

TEST(Kernel, ListingShowsPrologueKernelEpilogue)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    const PipelineResult r = pipelineLoop(g, m, Strategy::Ideal, {});
    const std::string text =
        formatKernelListing(r.graph(), m, r.sched, r.alloc.rotAlloc);
    EXPECT_NE(text.find("prologue_stage_0"), std::string::npos);
    EXPECT_NE(text.find("kernel:"), std::string::npos);
    EXPECT_NE(text.find("epilogue_stage_0"), std::string::npos);
    EXPECT_NE(text.find("rot["), std::string::npos);
    EXPECT_NE(text.find("s0"), std::string::npos);  // Invariant operand.
}

TEST(Kernel, MveListingRenamesAcrossCopies)
{
    const Ddg g = buildPaperExampleLoop();
    const Schedule s = paperFlatSchedule(2);
    const LifetimeInfo info = analyzeLifetimes(g, s);
    const std::string text = formatMveKernel(g, s, info);
    EXPECT_NE(text.find("unroll=5"), std::string::npos);
    EXPECT_NE(text.find("copy_0"), std::string::npos);
    EXPECT_NE(text.find("copy_4"), std::string::npos);
    // Ld (node 0) definitions must use several distinct name banks.
    int banks = 0;
    for (int bk = 0; bk < 5; ++bk) {
        if (text.find("v0_" + std::to_string(bk) + " =") !=
            std::string::npos) {
            ++banks;
        }
    }
    EXPECT_EQ(banks, 5);
}

TEST(Visualize, LifetimeChartShowsDefsAndUses)
{
    const Ddg g = buildPaperExampleLoop();
    const Schedule s = paperFlatSchedule(2);
    const std::string chart = formatLifetimeChart(g, s, 2);
    // Column headers name the live values.
    EXPECT_NE(chart.find("Ld"), std::string::npos);
    // Definition and last-use markers appear.
    EXPECT_NE(chart.find('o'), std::string::npos);
    EXPECT_NE(chart.find('+'), std::string::npos);
}

TEST(Visualize, PressureChartMatchesMaxLive)
{
    const Ddg g = buildPaperExampleLoop();
    const std::string chart =
        formatPressureChart(g, paperFlatSchedule(1));
    EXPECT_NE(chart.find("MaxLive=11"), std::string::npos);
    EXPECT_NE(chart.find(std::string(11, '#')), std::string::npos);
}

TEST(Kernel, SpilledLoopListingIncludesSpillOps)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    PipelinerOptions opts;
    opts.registers = 6;
    const PipelineResult r = pipelineLoop(g, m, Strategy::Spill, opts);
    ASSERT_TRUE(r.success);
    const std::string text =
        formatKernelListing(r.graph(), m, r.sched, r.alloc.rotAlloc);
    EXPECT_NE(text.find("Ls_"), std::string::npos);
}

} // namespace
} // namespace swp
