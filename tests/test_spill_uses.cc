/**
 * @file
 * Use-granularity spilling tests (the Section 6 extension): candidate
 * enumeration, the rewrite, interaction with value spilling, and
 * end-to-end correctness.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/verify.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/hrms.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "sim/vliw.hh"
#include "spill/insert.hh"
#include "workload/paper_loops.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

/** The spill candidates of a schedule's lifetimes. */
std::vector<SpillCandidate>
candidatesOf(const Ddg &g, const LifetimeInfo &info, bool uses = false)
{
    std::vector<SpillCandidate> out;
    spillCandidates(g, info, uses, out);
    return out;
}

/** ld feeds an early add and a much later mul (distance 4). */
Ddg
twoUseLoop()
{
    DdgBuilder b("twouse");
    const NodeId ld = b.load("ld");
    const NodeId early = b.add("early");
    b.flow(ld, early);
    const NodeId late = b.mul("late");
    b.flow(ld, late, 4);
    const NodeId st1 = b.store("st1");
    b.flow(early, st1);
    const NodeId st2 = b.store("st2");
    b.flow(late, st2);
    return b.take();
}

Schedule
twoUseSchedule(int ii)
{
    Schedule s(ii, 5);
    s.set(0, 0, 0);   // ld
    s.set(1, 2, 0);   // early
    s.set(2, 3, 0);   // late (plus 4 iterations of distance)
    s.set(3, 6, 1);   // st1
    s.set(4, 7, 1);   // st2
    return s;
}

/** The use-spill candidate of `v` among `cands`, or nullptr. */
const SpillCandidate *
useCandidateOf(const std::vector<SpillCandidate> &cands, NodeId v)
{
    for (const SpillCandidate &c : cands) {
        if (c.useEdge >= 0 && c.node == v)
            return &c;
    }
    return nullptr;
}

TEST(SpillUses, CandidateTargetsTheCriticalUse)
{
    const Ddg g = twoUseLoop();
    const LifetimeInfo info = analyzeLifetimes(g, twoUseSchedule(3));
    // ld: end = 3 + 4*3 = 15, secondEnd = 2 => savings 13.
    EXPECT_EQ(info.of(0).end, 15);
    EXPECT_EQ(info.of(0).secondEnd, 2);

    const auto withUses = candidatesOf(g, info, /*include_uses=*/true);
    const auto withoutUses = candidatesOf(g, info, false);
    EXPECT_EQ(withUses.size(), withoutUses.size() + 1);

    const SpillCandidate *useCand = nullptr;
    for (const auto &c : withUses) {
        if (c.useEdge >= 0)
            useCand = &c;
    }
    ASSERT_NE(useCand, nullptr);
    EXPECT_EQ(useCand->node, 0);
    EXPECT_EQ(useCand->lifetime, 13);
    EXPECT_EQ(useCand->cost, 1);  // Producer is a load: one reload.
    EXPECT_EQ(g.edge(useCand->useEdge).dst, 2);
}

TEST(SpillUses, RewriteKeepsTheOtherUseInRegisters)
{
    Ddg g = twoUseLoop();
    const LifetimeInfo info = analyzeLifetimes(g, twoUseSchedule(3));
    const auto cands = candidatesOf(g, info, true);
    const SpillCandidate *useCand = nullptr;
    for (const auto &c : cands) {
        if (c.useEdge >= 0)
            useCand = &c;
    }
    ASSERT_NE(useCand, nullptr);

    const Machine m = Machine::p2l4();
    const int memOps = g.numMemOps();
    insertSpill(g, m, *useCand);
    EXPECT_EQ(g.numMemOps() - memOps, 1);  // Producer is a load: no store.

    std::string why;
    EXPECT_TRUE(verifyDdg(g, &why)) << why;
    // The early use still reads the register copy.
    EXPECT_EQ(g.numValueUses(0), 1);
    EXPECT_EQ(g.edge(g.valueUses(0)[0]).dst, 1);
    // ld stays spillable at value granularity (it is a load).
    EXPECT_FALSE(g.node(0).nonSpillableValue);
    // The reload carries the distance as its stream shift.
    const NodeId ls = g.numNodes() - 1;
    EXPECT_EQ(g.node(ls).spillRef.kind, SpillRef::Kind::ReloadStream);
    EXPECT_EQ(g.node(ls).spillRef.shift, 4);
}

TEST(SpillUses, NonLoadProducerParksTheValueOnce)
{
    // A computed value with three uses, two of them late: the first
    // use-spill adds the store, the second reuses it.
    DdgBuilder b("parked");
    const NodeId ld = b.load("ld");
    const NodeId v = b.mul("v");
    b.flow(ld, v);
    const NodeId u1 = b.add("u1");
    b.flow(v, u1);
    const NodeId u2 = b.add("u2");
    b.flow(v, u2, 3);
    const NodeId u3 = b.add("u3");
    b.flow(v, u3, 5);
    for (NodeId u : {u1, u2, u3}) {
        const NodeId st = b.store();
        b.flow(u, st);
    }
    Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(2, g.numNodes());
    int t = 0;
    for (NodeId n = 0; n < g.numNodes(); ++n)
        s.set(n, t += 4, 0);
    // Build lifetimes directly from the graph + schedule.
    const LifetimeInfo info = analyzeLifetimes(g, s);

    const auto cands = candidatesOf(g, info, true);
    const SpillCandidate *useCand = useCandidateOf(cands, v);
    ASSERT_NE(useCand, nullptr);
    EXPECT_EQ(useCand->cost, 2);  // Store + load the first time.
    const int memOps = g.numMemOps();
    insertSpill(g, m, *useCand);
    EXPECT_EQ(g.numMemOps() - memOps, 2);
    EXPECT_TRUE(g.node(v).nonSpillableValue);
    ASSERT_NE(existingSpillStore(g, v), invalidNode);

    // Second round: the u2 use is now the critical one; its candidate
    // must reuse the parked copy (cost 1) even though v is marked.
    // (The graph grew by the spill store and reload; extend the
    // schedule with plausible times before re-analyzing.)
    const int oldNodes = s.numNodes();
    Schedule s2(2, g.numNodes());
    for (NodeId n = 0; n < oldNodes; ++n)
        s2.set(n, s.time(n), s.unit(n));
    for (NodeId n = oldNodes; n < g.numNodes(); ++n)
        s2.set(n, s.time(v) + 4 * (n - oldNodes + 1), 1);
    const LifetimeInfo info2 = analyzeLifetimes(g, s2);
    const auto cands2 = candidatesOf(g, info2, true);
    const SpillCandidate *useCand2 = useCandidateOf(cands2, v);
    ASSERT_NE(useCand2, nullptr);
    EXPECT_EQ(useCand2->cost, 1);
    const int memOps2 = g.numMemOps();
    insertSpill(g, m, *useCand2);
    EXPECT_EQ(g.numMemOps() - memOps2, 1);  // No second store.
    std::string why;
    EXPECT_TRUE(verifyDdg(g, &why)) << why;
}

TEST(SpillUses, UseSpillBesideAnOriginalStoreAddsAFreshStore)
{
    // v feeds an original distance-0 store and two later uses. Use
    // spills never reuse the original store: the first parks v in a
    // fresh spill store and reloads it (cost 2), the second reloads the
    // parked copy (cost 1).
    DdgBuilder b("beside");
    const NodeId ld = b.load("ld");
    const NodeId v = b.mul("v");
    b.flow(ld, v);
    const NodeId st = b.store("st");
    b.flow(v, st);
    const NodeId u1 = b.add("u1");
    b.flow(v, u1, 3);
    const NodeId u2 = b.add("u2");
    b.flow(v, u2, 5);
    for (NodeId u : {u1, u2}) {
        const NodeId out = b.store();
        b.flow(u, out);
    }
    Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(2, g.numNodes());
    int t = 0;
    for (NodeId n = 0; n < g.numNodes(); ++n)
        s.set(n, t += 4, 0);
    const auto cands = candidatesOf(g, analyzeLifetimes(g, s), true);
    const SpillCandidate *first = useCandidateOf(cands, v);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(g.edge(first->useEdge).dst, u2);
    EXPECT_EQ(first->cost, 2);
    const int nodes = g.numNodes();
    const int memOps = g.numMemOps();
    insertSpill(g, m, *first);
    EXPECT_EQ(g.numMemOps() - memOps, first->cost);
    ASSERT_EQ(g.node(nodes).origin, NodeOrigin::SpillStore);
    EXPECT_EQ(existingSpillStore(g, v), nodes);
    std::string why;
    EXPECT_TRUE(verifyDdg(g, &why)) << why;

    // Place the spill store and reload early so u1 is now the latest use.
    Schedule s2(2, g.numNodes());
    for (NodeId n = 0; n < nodes; ++n)
        s2.set(n, s.time(n), s.unit(n));
    for (NodeId n = nodes; n < g.numNodes(); ++n)
        s2.set(n, s.time(v) + 4 * (n - nodes + 1), 1);
    const auto cands2 =
        candidatesOf(g, analyzeLifetimes(g, s2), true);
    const SpillCandidate *second = useCandidateOf(cands2, v);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(g.edge(second->useEdge).dst, u1);
    EXPECT_EQ(second->cost, 1);
    const int memOps2 = g.numMemOps();
    insertSpill(g, m, *second);
    EXPECT_EQ(g.numMemOps() - memOps2, second->cost);
    EXPECT_TRUE(verifyDdg(g, &why)) << why;
    // The original store still reads v through its register.
    EXPECT_EQ(g.edge(*g.inEdges(st).begin()).src, v);
}

TEST(SpillUses, CostIsTheRewriteOnSuiteLoops)
{
    // A candidate's cost is the number of memory operations insertSpill
    // adds. For each loop and budget, a few spill rounds (HRMS at the
    // lowest feasible II from MII, Max(LT/Traf) pick) apply every
    // candidate of every round, value, use and invariant alike, to a
    // copy of the graph and compare.
    SuiteParams params;
    params.numLoops = 200;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    const Machine m = Machine::p2l4();
    HrmsScheduler hrms;
    int values = 0;
    int uses = 0;
    int invariants = 0;
    for (const SuiteLoop &loop : suite) {
        for (int registers : {8, 16}) {
            Ddg work = loop.graph;
            for (int round = 0; round < 4; ++round) {
                const IiSearchResult found =
                    searchIi(hrms, work, m, mii(work, m));
                if (!found.sched)
                    break;
                const LifetimeInfo info =
                    analyzeLifetimes(work, *found.sched);
                if (info.totalRegisterBound() <= registers)
                    break;
                const auto cands = candidatesOf(work, info, true);
                for (const SpillCandidate &cand : cands) {
                    Ddg copy = work;
                    insertSpill(copy, m, cand);
                    ASSERT_EQ(copy.numMemOps() - work.numMemOps(),
                              cand.cost)
                        << loop.graph.name() << " R=" << registers
                        << " round " << round << " node " << cand.node
                        << " use " << cand.useEdge << " inv "
                        << cand.inv;
                    if (cand.isInvariant)
                        ++invariants;
                    else if (cand.useEdge >= 0)
                        ++uses;
                    else
                        ++values;
                }
                const auto pick =
                    selectOne(cands, SpillHeuristic::MaxLTOverTraf);
                if (!pick)
                    break;
                insertSpill(work, m, *pick);
            }
        }
    }
    EXPECT_GT(values, 0);
    EXPECT_GT(uses, 0);
    EXPECT_GT(invariants, 0);
}

TEST(SpillUses, PipelineWithUseGranularityIsSoundAndCorrect)
{
    const Machine m = Machine::p2l4();
    for (const Ddg &g :
         {buildApsi47Analogue(), buildApsi50Analogue(), twoUseLoop()}) {
        PipelinerOptions opts;
        opts.registers = 24;
        opts.multiSelect = true;
        opts.reuseLastIi = true;
        opts.spillUses = true;
        const PipelineResult r = pipelineLoop(g, m, Strategy::Spill,
                                              opts);
        ASSERT_TRUE(r.success) << g.name();
        std::string why;
        ASSERT_TRUE(validateSchedule(r.graph(), m, r.sched, &why))
            << g.name() << ": " << why;
        ASSERT_TRUE(equivalentToSequential(g, r.graph(), m, r.sched,
                                           r.alloc.rotAlloc, 16, &why))
            << g.name() << ": " << why;
    }
}

TEST(SpillUses, HelpsApsi47SharedVector)
{
    // apsi47's loads have two consumers each, far apart: exactly the
    // shape use-spilling targets. It should converge with no more
    // spill operations than value spilling.
    const Ddg g = buildApsi47Analogue();
    const Machine m = Machine::p2l4();
    PipelinerOptions value;
    value.registers = 32;
    PipelinerOptions uses = value;
    uses.spillUses = true;

    const PipelineResult rv = pipelineLoop(g, m, Strategy::Spill, value);
    const PipelineResult ru = pipelineLoop(g, m, Strategy::Spill, uses);
    ASSERT_TRUE(rv.success);
    ASSERT_TRUE(ru.success);
    EXPECT_LE(ru.memOpsPerIteration(), rv.memOpsPerIteration());
    EXPECT_LE(ru.ii(), rv.ii() + 1);
}

} // namespace
} // namespace swp
