/**
 * @file
 * HRMS scheduler tests: the worked example, recurrences, resource
 * saturation, group handling and the pre-ordering invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ir/builder.hh"
#include "liferange/lifetimes.hh"
#include "machine/machine.hh"
#include "sched/fingerprint.hh"
#include "sched/groups.hh"
#include "sched/hrms.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "spill/insert.hh"
#include "workload/paper_loops.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

TEST(Hrms, SchedulesPaperExampleAtIiOne)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    HrmsScheduler hrms;
    auto s = hrms.scheduleAt(g, m, 1);
    ASSERT_TRUE(s.has_value());
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, *s, &why)) << why;

    // Figure 2: MaxLive 11 at II=1 (the chain Ld->*->+->St is rigid, so
    // any valid II=1 schedule of this graph has the same lifetimes).
    const LifetimeInfo info = analyzeLifetimes(g, *s);
    EXPECT_EQ(info.maxLive, 11);
}

TEST(Hrms, IiTwoHalvesThePressure)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    HrmsScheduler hrms;
    auto s = hrms.scheduleAt(g, m, 2);
    ASSERT_TRUE(s.has_value());
    const LifetimeInfo info = analyzeLifetimes(g, *s);
    // Figure 3: 7 registers at II=2.
    EXPECT_EQ(info.maxLive, 7);
}

TEST(Hrms, FailsBelowRecMii)
{
    DdgBuilder b("rec");
    const NodeId a = b.add("a");
    b.flow(a, a, 1);
    const NodeId st = b.store();
    b.flow(a, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    HrmsScheduler hrms;
    EXPECT_FALSE(hrms.scheduleAt(g, m, 3).has_value());
    EXPECT_TRUE(hrms.scheduleAt(g, m, 4).has_value());
}

TEST(Hrms, AchievesMiiOnResourceBoundLoops)
{
    // 8 independent load->store streams: ResMII = 8 on P2L4.
    DdgBuilder b("streams");
    for (int i = 0; i < 8; ++i) {
        const NodeId ld = b.load();
        const NodeId st = b.store();
        b.flow(ld, st);
    }
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();
    ASSERT_EQ(mii(g, m), 8);

    HrmsScheduler hrms;
    const auto s = hrms.scheduleAt(g, m, 8);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->ii(), 8);
}

TEST(Hrms, HandlesNonPipelinedDivide)
{
    DdgBuilder b("dv");
    const NodeId ld = b.load();
    const NodeId dv = b.div();
    const NodeId st = b.store();
    b.flow(ld, dv);
    b.flow(dv, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    HrmsScheduler hrms;
    EXPECT_FALSE(hrms.scheduleAt(g, m, 16).has_value());
    const auto s = hrms.scheduleAt(g, m, 17);
    ASSERT_TRUE(s.has_value());
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, *s, &why)) << why;
}

TEST(Hrms, SchedulesFusedGroupsAtExactOffsets)
{
    DdgBuilder b("fused");
    const NodeId ld = b.load("Ls");
    const NodeId mul = b.mul("*");
    const NodeId st = b.store("st");
    b.graph().addEdge(ld, mul, DepKind::RegFlow, 0, true);
    b.flow(mul, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    HrmsScheduler hrms;
    const auto s = hrms.scheduleAt(g, m, 1);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->time(mul) - s->time(ld), m.latency(Opcode::Load));
}

TEST(Hrms, IiSearchStopsAtFirstFeasible)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::p2l4();
    HrmsScheduler hrms;
    const int start = mii(g, m);
    const IiSearchResult r = searchIi(hrms, g, m, start);
    ASSERT_TRUE(r.sched.has_value());
    EXPECT_EQ(r.attempts, r.sched->ii() - start + 1);
}

/**
 * The HRMS pre-ordering property: when a node is appended, its already
 * appended neighbours are only predecessors or only successors —
 * except for nodes inside recurrences, which legitimately see both.
 */
TEST(Hrms, OrderingHasTheNeighbourhoodProperty)
{
    // A layered DAG with fan-in/fan-out.
    DdgBuilder b("dag");
    std::vector<NodeId> lds;
    for (int i = 0; i < 4; ++i)
        lds.push_back(b.load());
    std::vector<NodeId> muls;
    for (int i = 0; i < 3; ++i) {
        const NodeId m = b.mul();
        b.flow(lds[std::size_t(i)], m);
        b.flow(lds[std::size_t(i + 1)], m);
        muls.push_back(m);
    }
    const NodeId a1 = b.add();
    b.flow(muls[0], a1);
    b.flow(muls[1], a1);
    const NodeId a2 = b.add();
    b.flow(a1, a2);
    b.flow(muls[2], a2);
    const NodeId st = b.store();
    b.flow(a2, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    HrmsScheduler hrms;
    const auto order = hrms.orderingForTest(g, m, mii(g, m));
    ASSERT_EQ(order.size(), std::size_t(g.numNodes()));

    // Singleton groups here: group index == node id modulo renumbering;
    // recover node order via GroupSet.
    const GroupSet groups(g, m);
    std::set<NodeId> placed;
    for (int gi : order) {
        const NodeId v = groups.group(gi).members[0];
        bool hasPred = false, hasSucc = false;
        for (EdgeId e : g.inEdges(v)) {
            if (placed.count(g.edge(e).src))
                hasPred = true;
        }
        for (EdgeId e : g.outEdges(v)) {
            if (placed.count(g.edge(e).dst))
                hasSucc = true;
        }
        EXPECT_FALSE(hasPred && hasSucc)
            << "node " << g.node(v).name << " sees both sides";
        placed.insert(v);
    }
}

TEST(Hrms, BidirectionalPlacementShortensLifetimes)
{
    // A producer consumed very late via a long chain, plus an
    // independent second producer: HRMS should schedule the second
    // producer near its (late) consumer, not greedily early.
    DdgBuilder b("late");
    const NodeId ld1 = b.load("ld1");
    NodeId chain = ld1;
    for (int i = 0; i < 4; ++i) {
        const NodeId a = b.add();
        b.flow(chain, a);
        chain = a;
    }
    const NodeId ld2 = b.load("ld2");
    const NodeId fin = b.add("fin");
    b.flow(chain, fin);
    b.flow(ld2, fin);
    const NodeId st = b.store();
    b.flow(fin, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    HrmsScheduler hrms;
    const auto s = hrms.scheduleAt(g, m, mii(g, m));
    ASSERT_TRUE(s.has_value());
    // ld2's value must not live across the whole chain: its lifetime
    // should be a small constant (latency-ish), not ~4 adds deep.
    const LifetimeInfo info = analyzeLifetimes(g, *s);
    EXPECT_LE(info.of(ld2).length(), 2 * m.latency(Opcode::Load) + 2);
}

/**
 * Regression: two opposing reduction spines over shared loads (the
 * apsi47 shape) once defeated the pre-ordering — two placement fronts
 * met at an unordered node whose window was empty at *every* II. The
 * cone-based ordering must schedule the spilled form at its MII.
 */
TEST(Hrms, OpposingSpinesScheduleAfterSpilling)
{
    Ddg g = buildApsi47Analogue();
    const Machine m = Machine::p2l4();
    HrmsScheduler hrms;

    const auto first = hrms.scheduleAt(g, m, mii(g, m));
    ASSERT_TRUE(first.has_value());
    const LifetimeInfo info = analyzeLifetimes(g, *first);
    const auto pick =
        selectOne(spillCandidates(g, info), SpillHeuristic::MaxLTOverTraf);
    ASSERT_TRUE(pick.has_value());
    insertSpill(g, m, *pick);

    // Must recover within a cycle or two of the new MII, not "never".
    const int lower = mii(g, m);
    bool scheduled = false;
    for (int ii = lower; ii <= lower + 2 && !scheduled; ++ii)
        scheduled = hrms.scheduleAt(g, m, ii).has_value();
    EXPECT_TRUE(scheduled);
}

/**
 * Regression: two distinct recurrences joined by a zero-distance edge.
 * If the less critical one is placed first, the edge's source faces a
 * fixed gap no II can widen; the ordering must place components in the
 * topological order of zero-distance reachability.
 */
TEST(Hrms, ZeroDistanceEdgeBetweenRecurrences)
{
    DdgBuilder b("twoscc");
    // SCC A (more critical): a1 -> a2 -> a1 (distance 1).
    const NodeId a1 = b.add("a1");
    const NodeId a2 = b.mul("a2");
    b.flow(a1, a2);
    b.flow(a2, a1, 1);
    // SCC B (less critical): b1 -> b2 -> b1 (distance 2), entered from
    // A through a zero-distance edge a2 -> b1.
    const NodeId b1 = b.add("b1");
    const NodeId b2 = b.mul("b2");
    b.flow(b1, b2);
    b.flow(b2, b1, 2);
    b.flow(a2, b1);
    const NodeId st = b.store("st");
    b.flow(b2, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    HrmsScheduler hrms;
    const int lower = mii(g, m);
    const auto s = hrms.scheduleAt(g, m, lower);
    ASSERT_TRUE(s.has_value()) << "must schedule at MII=" << lower;
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, *s, &why)) << why;
}

TEST(Hrms, ReusedSchedulerMatchesFreshSchedulerAcrossLoops)
{
    // The workspace (MRT storage, priority buffers, reach matrices,
    // recurrence cache) is reused across probes; interleaving loops,
    // machines and IIs through one scheduler object must yield exactly
    // the schedules a fresh scheduler produces — stale workspace state
    // anywhere would diverge here.
    SuiteParams params;
    params.numLoops = 10;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    const Machine machines[] = {Machine::p1l4(), Machine::p2l4()};
    HrmsScheduler reused;
    for (const SuiteLoop &loop : suite) {
        for (const Machine &m : machines) {
            const int lower = mii(loop.graph, m);
            for (int ii = std::max(1, lower - 1); ii < lower + 3; ++ii) {
                HrmsScheduler fresh;
                const auto a = reused.scheduleAt(loop.graph, m, ii);
                const auto b = fresh.scheduleAt(loop.graph, m, ii);
                ASSERT_EQ(a.has_value(), b.has_value())
                    << loop.graph.name() << " on " << m.name()
                    << " ii=" << ii;
                if (!a)
                    continue;
                for (NodeId v = 0; v < loop.graph.numNodes(); ++v) {
                    ASSERT_EQ(a->time(v), b->time(v));
                    ASSERT_EQ(a->unit(v), b->unit(v));
                }
            }
        }
    }
}

TEST(Hrms, PreOrderingIsPinnedOnSuitePrefix)
{
    // The pre-ordering reaches the golden fingerprint only through the
    // final schedules; this pins it directly. One scheduler orders the
    // first 300 suite loops at MII and MII+3, and the group orders are
    // hashed (length first, so concatenations cannot collide).
    SuiteParams params;
    params.numLoops = 300;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    const Machine m = Machine::p2l4();
    HrmsScheduler hrms;
    Fingerprint fp;
    for (const SuiteLoop &loop : suite) {
        const int lower = mii(loop.graph, m);
        for (const int ii : {lower, lower + 3}) {
            const std::vector<int> order =
                hrms.orderingForTest(loop.graph, m, ii);
            fp.mix(std::uint64_t(order.size()));
            for (const int gi : order)
                fp.mix(std::uint64_t(gi));
        }
    }
    EXPECT_EQ(fp.value(), 0x74c80fe270209bddull);
}

TEST(Hrms, EveryScheduleValidatesOnSuiteSample)
{
    // Smoke over a few deterministic shapes at several IIs.
    const Machine machines[] = {Machine::p1l4(), Machine::p2l4(),
                                Machine::p2l6()};
    const Ddg g = buildPaperExampleLoop();
    HrmsScheduler hrms;
    for (const Machine &m : machines) {
        for (int ii = mii(g, m); ii < mii(g, m) + 6; ++ii) {
            const auto s = hrms.scheduleAt(g, m, ii);
            ASSERT_TRUE(s.has_value()) << m.name() << " ii=" << ii;
            std::string why;
            EXPECT_TRUE(validateSchedule(g, m, *s, &why)) << why;
        }
    }
}

} // namespace
} // namespace swp
