/**
 * @file
 * Complex-group construction tests (Section 4.3 fusion).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/fingerprint.hh"
#include "sched/groups.hh"
#include "sched/sched_util.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "workload/suitegen.hh"

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

    const auto feasible = [&](const Ddg &g, int ii) {
        const GroupSet groups(g, m);
        ArcTable arcs;
        arcs.build(g, m, groups, ii);
        return groupsInternallyFeasible(arcs, groups);
    };

    const Ddg near = build(1);
    EXPECT_FALSE(feasible(near, 5));
    EXPECT_TRUE(feasible(near, 6));

    // II * distance = 17 * 2^27 exceeds INT_MAX; computed wide, the
    // bound is far below the gap.
    EXPECT_TRUE(feasible(build(134217728), 17));

    // A self edge is internal to its singleton group: the carried
    // mul -> mul edge needs gap(0) >= lat(mul)(4) - II * 1.
    DdgBuilder b("self");
    const NodeId mul = b.mul("mul");
    b.flow(mul, mul, 1);
    b.flow(mul, b.store("st"));
    const Ddg self = b.take();
    const GroupSet selfGroups(self, m);
    ASSERT_TRUE(selfGroups.group(selfGroups.groupOf(mul)).singleton());
    EXPECT_FALSE(feasible(self, 3));
    EXPECT_TRUE(feasible(self, 4));
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

/** The partition a GroupSet publishes, in comparable form. */
struct GroupsView
{
    std::vector<int> groupOf;
    std::vector<int> offsetOf;
    std::vector<std::vector<NodeId>> members;
    std::vector<std::vector<int>> offsets;
};

GroupsView
viewOf(const GroupSet &groups, int numNodes)
{
    GroupsView v;
    for (NodeId n = 0; n < numNodes; ++n) {
        v.groupOf.push_back(groups.groupOf(n));
        v.offsetOf.push_back(groups.offsetOf(n));
    }
    for (int gi = 0; gi < groups.numGroups(); ++gi) {
        v.members.push_back(groups.group(gi).members);
        v.offsets.push_back(groups.group(gi).offsets);
    }
    return v;
}

/**
 * Reference partition: the original construction, whose offset walk
 * rescans every fused edge of the graph for every frontier node of a
 * group, one breadth-first level at a time.
 */
GroupsView
quadraticReference(const Ddg &g, const Machine &m)
{
    const int n = g.numNodes();
    GroupsView v;
    v.groupOf.assign(std::size_t(n), -1);
    v.offsetOf.assign(std::size_t(n), 0);
    std::vector<int> parent(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        parent[std::size_t(i)] = i;
    auto find = [&](int x) {
        while (parent[std::size_t(x)] != x)
            x = parent[std::size_t(x)];
        return x;
    };
    std::vector<EdgeId> fused;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive && edge.nonSpillable) {
            fused.push_back(e);
            const int a = find(edge.src);
            const int b = find(edge.dst);
            if (a != b)
                parent[std::size_t(a)] = b;
        }
    }
    std::vector<int> rootGroup(std::size_t(n), -1);
    for (NodeId u = 0; u < n; ++u) {
        const int r = find(u);
        if (rootGroup[std::size_t(r)] < 0) {
            rootGroup[std::size_t(r)] = int(v.members.size());
            v.members.emplace_back();
        }
        v.groupOf[std::size_t(u)] = rootGroup[std::size_t(r)];
        v.members[std::size_t(rootGroup[std::size_t(r)])].push_back(u);
    }
    std::vector<char> known(std::size_t(n), 0);
    std::vector<int> &off = v.offsetOf;
    for (std::vector<NodeId> &members : v.members) {
        off[std::size_t(members[0])] = 0;
        known[std::size_t(members[0])] = 1;
        std::vector<NodeId> frontier{members[0]};
        while (!frontier.empty()) {
            std::vector<NodeId> next;
            for (EdgeId e : fused) {
                const Edge &edge = g.edge(e);
                const int lat = fusedDelayOf(g, m, edge);
                for (NodeId u : frontier) {
                    NodeId w = invalidNode;
                    int o = 0;
                    if (edge.src == u) {
                        w = edge.dst;
                        o = off[std::size_t(u)] + lat;
                    } else if (edge.dst == u) {
                        w = edge.src;
                        o = off[std::size_t(u)] - lat;
                    } else {
                        continue;
                    }
                    if (!known[std::size_t(w)]) {
                        known[std::size_t(w)] = 1;
                        off[std::size_t(w)] = o;
                        next.push_back(w);
                    } else if (off[std::size_t(w)] != o) {
                        ADD_FAILURE() << "reference: inconsistent offsets";
                    }
                }
            }
            frontier.swap(next);
        }
        int lo = INT_MAX;
        for (NodeId u : members)
            lo = std::min(lo, off[std::size_t(u)]);
        for (NodeId u : members)
            off[std::size_t(u)] -= lo;
        std::sort(members.begin(), members.end(), [&](NodeId a, NodeId b) {
            if (off[std::size_t(a)] != off[std::size_t(b)])
                return off[std::size_t(a)] < off[std::size_t(b)];
            return a < b;
        });
        std::vector<int> offsets;
        for (NodeId u : members)
            offsets.push_back(off[std::size_t(u)]);
        v.offsets.push_back(offsets);
    }
    return v;
}

/** The largest number of fused in-edges from loads into one node. */
int
maxFusedLoadsIntoOneNode(const Ddg &g)
{
    std::vector<int> loads(std::size_t(g.numNodes()), 0);
    int most = 0;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive && edge.nonSpillable &&
            g.node(edge.src).op == Opcode::Load) {
            most = std::max(most, ++loads[std::size_t(edge.dst)]);
        }
    }
    return most;
}

/** Passes every probe to HRMS and keeps each distinct fused graph. */
class FusedGraphRecorder : public ModuloScheduler
{
  public:
    std::string name() const override { return "recorder"; }

    std::optional<Schedule>
    scheduleAt(const Ddg &g, const Machine &m, int ii) override
    {
        bool fusedEdge = false;
        for (EdgeId e = 0; e < g.numEdges() && !fusedEdge; ++e)
            fusedEdge = g.edge(e).alive && g.edge(e).nonSpillable;
        if (fusedEdge && seen_.insert(graphFingerprint(g)).second)
            graphs.push_back(g);
        return hrms_->scheduleAt(g, m, ii);
    }

    std::vector<Ddg> graphs;

  private:
    std::unique_ptr<ModuloScheduler> hrms_ =
        makeScheduler(SchedulerKind::Hrms);
    std::set<std::uint64_t> seen_;
};

TEST(Groups, MatchesQuadraticReferenceOnSpilledLoops)
{
    const Machine m = Machine::p2l4();
    GroupSet groups;  // One set, reset per graph, as a workspace does.

    // Every graph the spill rounds of the first 200 suite loops
    // schedule, at three tight budgets.
    SuiteParams params;
    params.numLoops = 200;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    FusedGraphRecorder recorder;
    const std::unique_ptr<ModuloScheduler> ims =
        makeScheduler(SchedulerKind::Ims);
    EvalContext ctx;
    ctx.scheduler = &recorder;
    ctx.imsFallback = ims.get();
    for (const int registers : {8, 12, 16}) {
        PipelinerOptions opts;
        opts.registers = registers;
        opts.multiSelect = true;
        opts.reuseLastIi = true;
        for (const SuiteLoop &loop : suite)
            (void)spillStrategy(loop.graph, m, opts, {}, &ctx);
    }
    ASSERT_GE(recorder.graphs.size(), 1000u);
    int multiMember = 0;
    int multiLoad = 0;
    for (const Ddg &g : recorder.graphs) {
        groups.reset(g, m);
        const GroupsView got = viewOf(groups, g.numNodes());
        const GroupsView want = quadraticReference(g, m);
        ASSERT_EQ(got.groupOf, want.groupOf) << g.name();
        ASSERT_EQ(got.offsetOf, want.offsetOf) << g.name();
        ASSERT_EQ(got.members, want.members) << g.name();
        ASSERT_EQ(got.offsets, want.offsets) << g.name();
        for (const std::vector<NodeId> &members : got.members)
            multiMember += members.size() > 1;
        multiLoad += maxFusedLoadsIntoOneNode(g) >= 2;
    }
    EXPECT_GT(multiMember, 10000);
    EXPECT_GT(multiLoad, 100) << "too few spilled graphs feed one consumer "
                                 "from several fused loads";

    // Randomized fused forests: each new node starts a tree or joins
    // one as a fused producer or consumer of an existing member, some
    // consumers take several fused loads with staggered delays, and
    // consistent chords and dead fused edges are added on top.
    const Opcode ops[] = {Opcode::Load, Opcode::Store, Opcode::Add,
                          Opcode::Mul,  Opcode::Div,   Opcode::Copy};
    Rng rng(0x9e3779b97f4a7c15ull);
    for (int trial = 0; trial < 300; ++trial) {
        Ddg g("forest" + std::to_string(trial));
        std::vector<int> tree;    // Tree index per node.
        std::vector<int> offset;  // Offset from the tree's first node.
        int trees = 0;
        const int n = rng.range(1, 60);
        // Stores produce no value, so their edges order memory.
        auto kindFrom = [&](NodeId src) {
            return producesValue(g.node(src).op) ? DepKind::RegFlow
                                                 : DepKind::Mem;
        };
        auto addFused = [&](NodeId src, NodeId dst, int delay) {
            const EdgeId e =
                g.addEdge(src, dst, kindFrom(src), rng.range(0, 2), true);
            g.edge(e).fusedDelay = delay;
            return fusedDelayOf(g, m, g.edge(e));
        };
        for (int i = 0; i < n; ++i) {
            const NodeId v = g.addNode(ops[rng.range(0, 5)]);
            const int delay = rng.chance(0.5) ? 0 : rng.range(1, 9);
            if (v == 0 || rng.chance(0.25)) {
                tree.push_back(trees++);
                offset.push_back(0);
            } else if (rng.chance(0.5)) {
                const NodeId p = rng.range(0, v - 1);
                tree.push_back(tree[std::size_t(p)]);
                offset.push_back(offset[std::size_t(p)] +
                                 addFused(p, v, delay));
            } else {
                const NodeId c = rng.range(0, v - 1);
                tree.push_back(tree[std::size_t(c)]);
                offset.push_back(offset[std::size_t(c)] -
                                 addFused(v, c, delay));
            }
            if (rng.chance(0.1)) {
                // A consumer fed by several fused loads.
                const int loads = rng.range(2, 4);
                for (int k = 0; k < loads; ++k) {
                    const NodeId ld = g.addNode(Opcode::Load);
                    tree.push_back(tree[std::size_t(v)]);
                    offset.push_back(
                        offset[std::size_t(v)] -
                        addFused(ld, v, m.latency(Opcode::Load) + k));
                }
            }
        }
        const int nodes = g.numNodes();
        for (int k = rng.range(0, nodes); k > 0; --k) {
            const NodeId a = rng.range(0, nodes - 1);
            const NodeId b = rng.range(0, nodes - 1);
            const int gap = offset[std::size_t(b)] - offset[std::size_t(a)];
            if (tree[std::size_t(a)] == tree[std::size_t(b)] && gap > 0)
                addFused(a, b, gap);  // A chord that agrees.
            else
                g.addEdge(a, b, kindFrom(a), rng.range(0, 2));
            if (rng.chance(0.1))  // A dead fused edge joins nothing.
                g.killEdge(g.addEdge(a, b, kindFrom(a), 0, true));
        }
        groups.reset(g, m);
        const GroupsView got = viewOf(groups, g.numNodes());
        const GroupsView want = quadraticReference(g, m);
        ASSERT_EQ(got.groupOf, want.groupOf) << g.name();
        ASSERT_EQ(got.offsetOf, want.offsetOf) << g.name();
        ASSERT_EQ(got.members, want.members) << g.name();
        ASSERT_EQ(got.offsets, want.offsets) << g.name();
        ASSERT_EQ(groups.numGroups(), trees) << g.name();
    }
}

TEST(Groups, UnfusedPartitionMatchesUnionFindOnRecycledStorage)
{
    // A graph with no fused edge takes the identity partition without
    // running union-find. It must equal the reference even on a set
    // whose group slots last held fused groups, and a fused graph reset
    // right after it must still match.
    const Machine m = Machine::p2l4();
    Ddg fused("fused");
    for (int i = 0; i < 40; ++i) {
        const NodeId ld = fused.addNode(Opcode::Load);
        const NodeId add = fused.addNode(Opcode::Add);
        const NodeId st = fused.addNode(Opcode::Store);
        fused.addEdge(ld, add, DepKind::RegFlow, 0, true);
        fused.addEdge(add, st, DepKind::RegFlow, 0, true);
    }
    GroupSet groups;
    auto expectReference = [&](const Ddg &g) {
        groups.reset(g, m);
        const GroupsView got = viewOf(groups, g.numNodes());
        const GroupsView want = quadraticReference(g, m);
        ASSERT_EQ(got.groupOf, want.groupOf) << g.name();
        ASSERT_EQ(got.offsetOf, want.offsetOf) << g.name();
        ASSERT_EQ(got.members, want.members) << g.name();
        ASSERT_EQ(got.offsets, want.offsets) << g.name();
    };
    int unfused = 0;
    for (const SuiteLoop &loop : generateSuite(SuiteParams{})) {
        expectReference(fused);
        ASSERT_EQ(groups.numGroups(), 40);
        bool fusedEdge = false;
        for (EdgeId e = 0; e < loop.graph.numEdges(); ++e)
            fusedEdge |= loop.graph.edge(e).nonSpillable;
        unfused += !fusedEdge;
        expectReference(loop.graph);
        ASSERT_EQ(groups.numGroups(), loop.graph.numNodes());
    }
    EXPECT_EQ(unfused, SuiteParams{}.numLoops);
}

TEST(Groups, InconsistentFusedOffsetsPanic)
{
    // a -> b -> d implies offset(d) = 2 while a -> c -> d implies 3: a
    // spiller bug that must stop the build, naming the node.
    DdgBuilder b("diamond");
    const NodeId a = b.load("a");
    const NodeId x = b.add("b");
    const NodeId y = b.add("c");
    const NodeId d = b.store("d");
    const auto fuse = [&](NodeId src, NodeId dst, int delay) {
        const EdgeId e = b.graph().addEdge(src, dst, DepKind::RegFlow, 0, true);
        b.graph().edge(e).fusedDelay = delay;
    };
    fuse(a, x, 1);
    fuse(x, d, 1);
    fuse(a, y, 1);
    fuse(y, d, 2);
    const Ddg g = b.take();
    GroupSet groups;
    try {
        groups.reset(g, Machine::p2l4());
        FAIL() << "inconsistent fused offsets were accepted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "inconsistent fused offsets at node d"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace swp
