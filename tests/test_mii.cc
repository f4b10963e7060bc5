/**
 * @file
 * MII computation tests: resource bound (including non-pipelined
 * occupancy) and recurrence bound via min-cycle-ratio.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/mii.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

/**
 * Reference RecMII: the pre-decomposition implementation — whole-graph
 * Bellman-Ford positive-cycle detection inside a binary search. The
 * per-SCC recMii must return exactly this on every graph.
 */
bool
refHasPositiveCycle(const Ddg &g, const Machine &m, int ii)
{
    const int n = g.numNodes();
    std::vector<long> dist(std::size_t(n), 0);
    for (int iter = 0; iter < n; ++iter) {
        bool changed = false;
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (!edge.alive)
                continue;
            const long w =
                m.latency(g.node(edge.src).op) - long(ii) * edge.distance;
            if (dist[std::size_t(edge.src)] + w >
                dist[std::size_t(edge.dst)]) {
                dist[std::size_t(edge.dst)] =
                    dist[std::size_t(edge.src)] + w;
                changed = true;
            }
        }
        if (!changed)
            return false;
    }
    return true;
}

int
refRecMii(const Ddg &g, const Machine &m)
{
    long hi = 1;
    for (NodeId n = 0; n < g.numNodes(); ++n)
        hi += m.latency(g.node(n).op);
    if (!refHasPositiveCycle(g, m, 1))
        return 1;
    long lo = 1;  // infeasible
    while (lo + 1 < hi) {
        const long mid = lo + (hi - lo) / 2;
        if (refHasPositiveCycle(g, m, int(mid)))
            lo = mid;
        else
            hi = mid;
    }
    return int(hi);
}

TEST(ResMii, PaperExampleNeedsOneCycleOnFourUnits)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    // 4 ops on 4 universal units: one iteration per cycle.
    EXPECT_EQ(resMii(g, m), 1);
    EXPECT_EQ(mii(g, m), 1);
}

TEST(ResMii, MemoryBoundLoop)
{
    DdgBuilder b("membound");
    std::vector<NodeId> lds;
    for (int i = 0; i < 6; ++i)
        lds.push_back(b.load());
    NodeId acc = lds[0];
    for (int i = 1; i < 6; ++i) {
        const NodeId add = b.add();
        b.flow(acc, add);
        b.flow(lds[std::size_t(i)], add);
        acc = add;
    }
    const NodeId st = b.store();
    b.flow(acc, st);
    const Ddg g = b.take();

    // 7 memory ops on 1 unit vs 2 units.
    EXPECT_EQ(resMii(g, Machine::p1l4()), 7);
    EXPECT_EQ(resMii(g, Machine::p2l4()), 4);
}

TEST(ResMii, NonPipelinedDivideDominates)
{
    DdgBuilder b("div");
    const NodeId ld = b.load();
    const NodeId dv = b.div();
    const NodeId st = b.store();
    b.flow(ld, dv);
    b.flow(dv, st);
    const Ddg g = b.take();

    // One divide occupies its unit 17 cycles: II >= 17 whatever else.
    EXPECT_EQ(resMii(g, Machine::p2l4()), 17);
}

TEST(ResMii, TwoDividesOnOneUnit)
{
    DdgBuilder b("div2");
    const NodeId ld = b.load();
    const NodeId d1 = b.div();
    const NodeId d2 = b.div();
    const NodeId st = b.store();
    b.flow(ld, d1);
    b.flow(ld, d2);
    b.flow(d1, st);
    const NodeId st2 = b.store();
    b.flow(d2, st2);
    const Ddg g = b.take();

    EXPECT_EQ(resMii(g, Machine::p1l4()), 34);  // 2 x 17 on one unit.
    EXPECT_EQ(resMii(g, Machine::p2l4()), 17);  // One each.
}

TEST(RecMii, AcyclicLoopHasRecMiiOne)
{
    const Ddg g = buildPaperExampleLoop();
    // The only carried edge (Ld->+ at distance 3) closes no cycle.
    EXPECT_EQ(recMii(g, Machine::p2l4()), 1);
}

TEST(RecMii, SelfAccumulatorCeilsLatencyOverDistance)
{
    DdgBuilder b("acc");
    const NodeId add = b.add("acc");
    b.flow(add, add, 1);
    const NodeId st = b.store();
    b.flow(add, st);
    const Ddg g = b.take();

    // P2L4: add latency 4, distance 1 => RecMII 4.
    EXPECT_EQ(recMii(g, Machine::p2l4()), 4);
    // P2L6: latency 6.
    EXPECT_EQ(recMii(g, Machine::p2l6()), 6);
    // Distance 2 halves it (rounded up).
    DdgBuilder b2("acc2");
    const NodeId a2 = b2.add();
    b2.flow(a2, a2, 2);
    const NodeId st2 = b2.store();
    b2.flow(a2, st2);
    EXPECT_EQ(recMii(b2.take(), Machine::p2l6()), 3);
}

TEST(RecMii, MultiNodeCycle)
{
    DdgBuilder b("cyc");
    const NodeId a = b.add("a");
    const NodeId m = b.mul("m");
    b.flow(a, m);
    b.flow(m, a, 2);
    const NodeId st = b.store();
    b.flow(m, st);
    const Ddg g = b.take();

    // Cycle latency 4+4=8 over distance 2 => RecMII 4 on P2L4.
    EXPECT_EQ(recMii(g, Machine::p2l4()), 4);
    EXPECT_FALSE(refHasPositiveCycle(g, Machine::p2l4(), 4));
    EXPECT_TRUE(refHasPositiveCycle(g, Machine::p2l4(), 3));
}

TEST(RecMii, TightestOfSeveralCyclesWins)
{
    DdgBuilder b("two");
    const NodeId a = b.add("a");
    b.flow(a, a, 4);  // 4/4 = 1 per iteration.
    const NodeId m = b.mul("m");
    b.flow(m, m, 1);  // 4/1 = 4.
    const NodeId st = b.store();
    b.flow(a, st);
    const NodeId st2 = b.store();
    b.flow(m, st2);
    const Ddg g = b.take();
    EXPECT_EQ(recMii(g, Machine::p2l4()), 4);

    // The per-region primitive separates them, and never answers below
    // its floor: each self-loop is a one-node region of latency 4.
    std::vector<long> dist;
    const RegionArc selfA{0, 0, 4, 4};
    const RegionArc selfM{0, 0, 4, 1};
    EXPECT_EQ(regionRecMii({1, 4, &selfA, &selfA + 1}, 1, dist), 1);
    EXPECT_EQ(regionRecMii({1, 4, &selfM, &selfM + 1}, 1, dist), 4);
    EXPECT_EQ(regionRecMii({1, 4, &selfM, &selfM + 1}, 6, dist), 6);
}

TEST(RecMii, PerSccMatchesWholeGraphReferenceOnSuite)
{
    // The per-SCC decomposition (with early exit and component-local
    // Bellman-Ford) must be an exact drop-in for the old whole-graph
    // binary search on the pinned-seed generated suite.
    auto expectMatchesReference = [](const Ddg &g, const Machine &m) {
        const int r = recMii(g, m);
        EXPECT_EQ(r, refRecMii(g, m)) << g.name() << " on " << m.name();
        // Feasibility agrees with the bound on both sides.
        EXPECT_FALSE(refHasPositiveCycle(g, m, r));
        if (r > 1) {
            EXPECT_TRUE(refHasPositiveCycle(g, m, r - 1));
        }
        return r;
    };
    SuiteParams params;
    params.numLoops = 200;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    const Machine machines[] = {Machine::p1l4(), Machine::p2l4(),
                                Machine::p2l6()};
    for (const Machine &m : machines) {
        for (const SuiteLoop &loop : suite)
            expectMatchesReference(loop.graph, m);
    }

    // The graphs iterative spilling leaves behind: dead edge records,
    // fused spill edges and appended spill nodes.
    int spilled = 0;
    int recurrent = 0;
    for (const Machine &m : {Machine::p1l4(), Machine::p2l4()}) {
        for (const int registers : {8, 16}) {
            PipelinerOptions opts;
            opts.registers = registers;
            opts.multiSelect = true;
            for (const SuiteLoop &loop : suite) {
                const PipelineResult res =
                    spillStrategy(loop.graph, m, opts);
                if (!res.ownsGraph())
                    continue;
                ++spilled;
                recurrent += expectMatchesReference(res.graph(), m) > 1;
            }
        }
    }
    EXPECT_GT(spilled, 0);
    EXPECT_GT(recurrent, 0);
}

TEST(Mii, TakesTheMaxOfBothBounds)
{
    DdgBuilder b("both");
    std::vector<NodeId> lds;
    for (int i = 0; i < 8; ++i)
        lds.push_back(b.load());
    const NodeId acc = b.add("acc");
    b.flow(lds[0], acc);
    b.flow(acc, acc, 1);
    const NodeId st = b.store();
    b.flow(acc, st);
    for (int i = 1; i < 8; ++i) {
        const NodeId s = b.store();
        b.flow(lds[std::size_t(i)], s);
    }
    const Ddg g = b.take();

    const Machine m = Machine::p2l4();
    EXPECT_EQ(resMii(g, m), 8);  // 16 mem ops over 2 units.
    EXPECT_EQ(recMii(g, m), 4);
    EXPECT_EQ(mii(g, m), 8);
}

} // namespace
} // namespace swp
