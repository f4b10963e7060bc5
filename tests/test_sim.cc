/**
 * @file
 * Simulator tests: dataflow semantics, pipelined execution against the
 * sequential reference, live-in handling, and clobber detection.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/builder.hh"
#include "pipeliner/pipeliner.hh"
#include "sim/dataflow.hh"
#include "sim/vliw.hh"
#include "spill/insert.hh"
#include "workload/paper_loops.hh"

namespace swp
{
namespace
{

TEST(Dataflow, StreamsAreDeterministicAndDistinct)
{
    EXPECT_EQ(loadStreamValue(3, 7), loadStreamValue(3, 7));
    EXPECT_NE(loadStreamValue(3, 7), loadStreamValue(3, 8));
    EXPECT_NE(loadStreamValue(3, 7), loadStreamValue(4, 7));
    EXPECT_NE(invariantValue(0), invariantValue(1));
    EXPECT_NE(liveInValue(2, -1), liveInValue(2, -2));
}

TEST(Dataflow, OracleIsConsistentWithItself)
{
    const Ddg g = buildPaperExampleLoop();
    DataflowOracle a(g), b(g);
    for (long i = 0; i < 10; ++i) {
        EXPECT_EQ(a.value(2, i), b.value(2, i));
        EXPECT_EQ(a.value(3, i), b.value(3, i));
    }
}

TEST(Dataflow, CarriedUseReadsOlderInstance)
{
    const Ddg g = buildPaperExampleLoop();
    DataflowOracle oracle(g);
    // '+' at iteration 5 consumes Ld's value from iteration 2 (distance
    // 3) and '*'s value from iteration 5; recomputing by hand:
    std::vector<std::uint64_t> inputs = {oracle.value(0, 2),
                                         oracle.value(1, 5)};
    std::sort(inputs.begin(), inputs.end());
    EXPECT_EQ(oracle.value(2, 5), combineOperands(Opcode::Add, 2, inputs));
}

TEST(Dataflow, EarlyIterationsSeeLiveIns)
{
    const Ddg g = buildPaperExampleLoop();
    DataflowOracle oracle(g);
    // At iteration 0, '+' reads Ld's instance -3: defined, stable.
    const auto v1 = oracle.value(2, 0);
    const auto v2 = oracle.value(2, 0);
    EXPECT_EQ(v1, v2);
    // Loads have stream semantics for negative iterations.
    EXPECT_EQ(oracle.value(0, -3), loadStreamValue(0, -3));
}

TEST(Dataflow, ReferenceStreamsCoverOriginalStoresOnly)
{
    Ddg g = buildPaperExampleLoop();
    const auto streams = referenceStoreStreams(g, 8);
    ASSERT_EQ(streams.size(), 1u);
    EXPECT_EQ(streams.begin()->first, 3);
    EXPECT_EQ(streams.begin()->second.size(), 8u);
}

/** Pipeline a loop with a budget and check against the reference. */
void
expectEquivalent(const Ddg &g, const Machine &m, int budget,
                 Strategy strategy, long iterations = 24)
{
    PipelinerOptions opts;
    opts.registers = budget;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    const PipelineResult r = pipelineLoop(g, m, strategy, opts);
    ASSERT_TRUE(r.success) << g.name() << " budget=" << budget;
    std::string why;
    ASSERT_TRUE(equivalentToSequential(g, r.graph(), m, r.sched,
                                       r.alloc.rotAlloc, iterations, &why))
        << g.name() << " budget=" << budget << ": " << why;
}

TEST(Vliw, PaperExampleIdealExecutesCorrectly)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    const PipelineResult r = pipelineLoop(g, m, Strategy::Ideal, {});
    std::string why;
    EXPECT_TRUE(equivalentToSequential(g, r.graph(), m, r.sched,
                                       r.alloc.rotAlloc, 32, &why))
        << why;
}

TEST(Vliw, PaperExampleSpilledExecutesCorrectly)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    expectEquivalent(g, m, 6, Strategy::Spill);
}

TEST(Vliw, Apsi47SpilledTo32ExecutesCorrectly)
{
    expectEquivalent(buildApsi47Analogue(), Machine::p2l4(), 32,
                     Strategy::Spill);
}

TEST(Vliw, Apsi50SpilledTo32ExecutesCorrectly)
{
    expectEquivalent(buildApsi50Analogue(), Machine::p2l4(), 32,
                     Strategy::Spill);
}

TEST(Vliw, IncreaseIiResultExecutesCorrectly)
{
    expectEquivalent(buildApsi47Analogue(), Machine::p2l4(), 40,
                     Strategy::IncreaseII);
}

TEST(Vliw, BestOfAllResultExecutesCorrectly)
{
    expectEquivalent(buildApsi47Analogue(), Machine::p2l4(), 32,
                     Strategy::BestOfAll);
}

TEST(Vliw, CountsMemoryTraffic)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    const PipelineResult r = pipelineLoop(g, m, Strategy::Ideal, {});
    const SimResult sim =
        simulatePipelined(r.graph(), m, r.sched, r.alloc.rotAlloc, 10);
    ASSERT_TRUE(sim.ok) << sim.error;
    EXPECT_EQ(sim.memoryOps, 20);  // 1 load + 1 store per iteration.
    EXPECT_GT(sim.cycles, 10);
}

TEST(Vliw, DetectsClobberFromBadAllocation)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    const PipelineResult r = pipelineLoop(g, m, Strategy::Ideal, {});

    // Sabotage: give every value the same register offset.
    RotAllocResult bad = r.alloc.rotAlloc;
    for (auto &off : bad.offset) {
        if (off >= 0)
            off = 0;
    }
    bad.registers = 2;  // Far below MaxLive.
    const SimResult sim = simulatePipelined(r.graph(), m, r.sched, bad, 16);
    EXPECT_FALSE(sim.ok);
    EXPECT_NE(sim.error.find("clobbered"), std::string::npos);
}

TEST(Vliw, EndToEndCatchesWrongStoreStream)
{
    // A deliberately wrong "transformed" graph: reload shifted by the
    // wrong distance. The equivalence check must fail.
    const Machine m = Machine::universal("fig2", 4, 2);
    Ddg g = buildPaperExampleLoop();
    Ddg bad = g;
    // Spill V1, then corrupt the reload shift.
    SpillCandidate cand;
    cand.node = 0;
    cand.lifetime = 7;
    cand.cost = 2;
    insertSpill(bad, m, cand);
    for (NodeId n = 4; n < bad.numNodes(); ++n) {
        if (bad.node(n).spillRef.shift == 3)
            bad.node(n).spillRef.shift = 2;  // Off-by-one iteration.
    }
    const PipelineResult r = pipelineLoop(bad, m, Strategy::Ideal, {});
    std::string why;
    EXPECT_FALSE(equivalentToSequential(g, bad, m, r.sched,
                                        r.alloc.rotAlloc, 16, &why));
}

} // namespace
} // namespace swp
