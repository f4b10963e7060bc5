/**
 * @file
 * Complex-group construction tests (Section 4.3 fusion).
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "sched/groups.hh"
#include "sched/sched_util.hh"

namespace swp
{
namespace
{

TEST(Groups, AllSingletonsWithoutFusedEdges)
{
    const Ddg g = buildPaperExampleLoop();
    const GroupSet groups(g, Machine::p2l4());
    EXPECT_EQ(groups.numGroups(), g.numNodes());
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        EXPECT_TRUE(groups.group(groups.groupOf(n)).singleton());
        EXPECT_EQ(groups.offsetOf(n), 0);
    }
}

TEST(Groups, PairOffsetsEqualProducerLatency)
{
    DdgBuilder b("pair");
    const NodeId ld = b.load("Ls");
    const NodeId mul = b.mul("*");
    const NodeId st = b.store("st");
    b.graph().addEdge(ld, mul, DepKind::RegFlow, 0, true);
    b.flow(mul, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    const GroupSet groups(g, m);
    EXPECT_EQ(groups.numGroups(), 2);
    const int gi = groups.groupOf(ld);
    ASSERT_EQ(gi, groups.groupOf(mul));
    EXPECT_EQ(groups.offsetOf(ld), 0);
    EXPECT_EQ(groups.offsetOf(mul), m.latency(Opcode::Load));
}

TEST(Groups, InternalCarriedEdgeFeasibility)
{
    // ld is fused to mul at offset 2; the carried mul -> ld edge inside
    // the group needs gap(-2) >= lat(mul)(4) - II * distance.
    auto build = [](int distance) {
        DdgBuilder b("inner");
        const NodeId ld = b.load("ld");
        const NodeId mul = b.mul("mul");
        b.graph().addEdge(ld, mul, DepKind::RegFlow, 0, true);
        b.graph().addEdge(mul, ld, DepKind::RegFlow, distance);
        return b.take();
    };
    const Machine m = Machine::p2l4();

    const Ddg near = build(1);
    const GroupSet nearGroups(near, m);
    EXPECT_FALSE(groupsInternallyFeasible(near, m, nearGroups, 5));
    EXPECT_TRUE(groupsInternallyFeasible(near, m, nearGroups, 6));

    // II * distance = 17 * 2^27 exceeds INT_MAX; computed wide, the
    // bound is far below the gap.
    const Ddg far = build(134217728);
    const GroupSet farGroups(far, m);
    EXPECT_TRUE(groupsInternallyFeasible(far, m, farGroups, 17));

    // A self edge is internal to its singleton group: the carried
    // mul -> mul edge needs gap(0) >= lat(mul)(4) - II * 1.
    DdgBuilder b("self");
    const NodeId mul = b.mul("mul");
    b.flow(mul, mul, 1);
    b.flow(mul, b.store("st"));
    const Ddg self = b.take();
    const GroupSet selfGroups(self, m);
    ASSERT_TRUE(selfGroups.group(selfGroups.groupOf(mul)).singleton());
    EXPECT_FALSE(groupsInternallyFeasible(self, m, selfGroups, 3));
    EXPECT_TRUE(groupsInternallyFeasible(self, m, selfGroups, 4));
}

TEST(Groups, ChainsMergeTransitively)
{
    // producer -> spill store, spill load -> consumer, and the consumer
    // itself fused to another store: one group of four.
    DdgBuilder b("chain");
    const NodeId a = b.add("a");
    const NodeId ss = b.store("Ss");
    const NodeId ls = b.load("Ls");
    const NodeId c = b.mul("c");
    const NodeId ss2 = b.store("Ss2");
    b.graph().addEdge(a, ss, DepKind::RegFlow, 0, true);
    b.graph().addEdge(ls, c, DepKind::RegFlow, 0, true);
    b.graph().addEdge(c, ss2, DepKind::RegFlow, 0, true);
    b.graph().addEdge(a, c, DepKind::RegFlow, 0, false);
    b.mem(ss, ls, 1);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    const GroupSet groups(g, m);
    // {a, ss} and {ls, c, ss2}.
    EXPECT_EQ(groups.groupOf(a), groups.groupOf(ss));
    EXPECT_EQ(groups.groupOf(ls), groups.groupOf(c));
    EXPECT_EQ(groups.groupOf(c), groups.groupOf(ss2));
    EXPECT_NE(groups.groupOf(a), groups.groupOf(ls));

    EXPECT_EQ(groups.offsetOf(ss), m.latency(Opcode::Add));
    EXPECT_EQ(groups.offsetOf(c), m.latency(Opcode::Load));
    EXPECT_EQ(groups.offsetOf(ss2),
              m.latency(Opcode::Load) + m.latency(Opcode::Mul));
}

TEST(Groups, MembersSortedByOffset)
{
    DdgBuilder b("sorted");
    const NodeId ld = b.load();
    const NodeId a1 = b.add();
    const NodeId st = b.store();
    b.graph().addEdge(ld, a1, DepKind::RegFlow, 0, true);
    b.graph().addEdge(a1, st, DepKind::RegFlow, 0, true);
    const Ddg g = b.take();
    const GroupSet groups(g, Machine::p2l4());

    const ComplexGroup &grp = groups.group(groups.groupOf(ld));
    ASSERT_EQ(grp.members.size(), 3u);
    EXPECT_EQ(grp.members[0], ld);
    EXPECT_EQ(grp.members[1], a1);
    EXPECT_EQ(grp.members[2], st);
    EXPECT_EQ(grp.offsets[0], 0);
    EXPECT_LT(grp.offsets[0], grp.offsets[1]);
    EXPECT_LT(grp.offsets[1], grp.offsets[2]);
}

} // namespace
} // namespace swp
