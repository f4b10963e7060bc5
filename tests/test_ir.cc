/**
 * @file
 * Tests for the DDG representation, builder, graph algorithms and the
 * structural verifier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ir/builder.hh"
#include "ir/graph_algo.hh"
#include "ir/verify.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/fingerprint.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "testkit/reachability.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

/** A node's out- or in-list copied into a vector, for comparison. */
template <typename List>
std::vector<EdgeId>
listOf(const List &list)
{
    std::vector<EdgeId> ids;
    for (EdgeId e : list)
        ids.push_back(e);
    return ids;
}

TEST(Ddg, BuildsPaperExampleShape)
{
    const Ddg g = buildPaperExampleLoop();
    EXPECT_EQ(g.numNodes(), 4);
    EXPECT_EQ(g.numEdges(), 4);
    EXPECT_EQ(g.numInvariants(), 1);
    EXPECT_EQ(g.numMemOps(), 2);

    // Ld has two uses, one of them loop carried at distance 3.
    const auto uses = g.valueUses(0);
    ASSERT_EQ(uses.size(), 2u);
    int carried = 0;
    for (EdgeId e : uses)
        carried += g.edge(e).distance;
    EXPECT_EQ(carried, 3);
}

TEST(Ddg, KillEdgeHidesItEverywhere)
{
    DdgBuilder b("kill");
    const NodeId ld = b.load();
    const NodeId st = b.store();
    const EdgeId e = b.flow(ld, st);
    Ddg g = b.take();

    EXPECT_EQ(listOf(g.outEdges(ld)), std::vector<EdgeId>{e});
    g.killEdge(e);
    EXPECT_TRUE(g.outEdges(ld).empty());
    EXPECT_TRUE(g.inEdges(st).empty());
    EXPECT_EQ(g.numValueUses(ld), 0);
    // The record stays, dead, under its id.
    ASSERT_EQ(g.numEdges(), 1);
    EXPECT_FALSE(g.edge(e).alive);
}

TEST(Ddg, KillingADeadEdgePanics)
{
    DdgBuilder b("twice");
    const NodeId ld = b.load();
    const NodeId st = b.store();
    const EdgeId e = b.flow(ld, st);
    b.flow(ld, st, 1);
    Ddg g = b.take();

    g.killEdge(e);
    EXPECT_THROW(g.killEdge(e), PanicError);
    // The failed kill changed nothing.
    EXPECT_EQ(listOf(g.outEdges(ld)), std::vector<EdgeId>{1});
    EXPECT_EQ(listOf(g.inEdges(st)), std::vector<EdgeId>{1});
}

TEST(Ddg, MutatingADetachedCopyNeverPerturbsTheOriginal)
{
    const Ddg a = buildPaperExampleLoop();
    const std::string before = a.dump();

    Ddg b = a;
    const NodeId extra = b.addNode(Opcode::Add, "extra");
    b.addEdge(0, extra, DepKind::RegFlow, 1);
    b.killEdge(0);
    b.invariant(0).spilled = true;
    b.setName("mutant");

    EXPECT_EQ(a.dump(), before) << "original aliased by a mutated copy";
    EXPECT_NE(b.dump(), before);
    EXPECT_EQ(a.numNodes() + 1, b.numNodes());

    // References into the original's storage survive the copy's whole
    // mutation history.
    const Node &n0 = a.node(0);
    EXPECT_EQ(n0.op, buildPaperExampleLoop().node(0).op);
}

TEST(Ddg, MutatingTheOriginalLeavesTheCopyIntact)
{
    Ddg a = buildPaperExampleLoop();
    const Ddg b = a;
    const std::string before = b.dump();

    a.killEdge(0);
    a.addNode(Opcode::Mul);

    EXPECT_EQ(b.dump(), before) << "copy aliased by the mutated source";
}

TEST(Ddg, MovedFromGraphIsValidAndEmpty)
{
    Ddg a = buildPaperExampleLoop();
    const std::uint64_t full = graphFingerprint(a);
    const Ddg b = std::move(a);
    EXPECT_EQ(a.numNodes(), 0);
    EXPECT_EQ(a.numEdges(), 0);
    EXPECT_EQ(a.numInvariants(), 0);
    EXPECT_GT(b.numNodes(), 0);
    // Neither side keeps a fingerprint of the other's content.
    EXPECT_EQ(graphFingerprint(a), graphFingerprint(Ddg(a)));
    EXPECT_EQ(graphFingerprint(b), full);

    // A moved-from graph is reusable.
    a.addNode(Opcode::Add);
    EXPECT_EQ(a.numNodes(), 1);

    Ddg c("c");
    c = std::move(a);
    EXPECT_EQ(c.numNodes(), 1);
    EXPECT_EQ(a.numNodes(), 0);
}

TEST(Ddg, FingerprintFollowsEveryMutator)
{
    // Every mutator must clear the cached fingerprint. After each one
    // the graph's fingerprint must match a fresh copy's, whose cache
    // starts empty and is therefore computed from the current content.
    Ddg g = buildPaperExampleLoop();
    const std::vector<std::pair<std::string, std::function<void()>>>
        mutators = {
            {"setName", [&] { g.setName("renamed"); }},
            {"addNode", [&] { g.addNode(Opcode::Add); }},
            {"addEdge",
             [&] { g.addEdge(0, g.numNodes() - 1, DepKind::RegFlow, 1); }},
            {"addInvariant", [&] { g.addInvariant(); }},
            {"addInvariantUse",
             [&] { g.addInvariantUse(g.numInvariants() - 1, 0); }},
            {"killEdge", [&] { g.killEdge(*g.outEdges(0).begin()); }},
            {"node()", [&] { g.node(g.numNodes() - 1).op = Opcode::Mul; }},
            {"edge()",
             [&] { g.edge(*g.outEdges(0).begin()).distance += 1; }},
        };
    for (const auto &[name, mutate] : mutators) {
        const std::uint64_t before = graphFingerprint(g);  // Fills the cache.
        mutate();
        const std::uint64_t after = graphFingerprint(g);
        EXPECT_EQ(after, graphFingerprint(Ddg(g))) << name;
        // Invariant uses are outside the fingerprint; the rest changes it.
        if (name != "addInvariantUse") {
            EXPECT_NE(after, before) << name;
        }
    }
}

TEST(Ddg, RegFlowFromStoreIsRejected)
{
    DdgBuilder b("bad");
    const NodeId st = b.store();
    const NodeId add = b.add();
    EXPECT_THROW(b.graph().addEdge(st, add, DepKind::RegFlow),
                 PanicError);
}

TEST(Ddg, InvariantBookkeeping)
{
    DdgBuilder b("inv");
    const NodeId m1 = b.mul();
    const NodeId m2 = b.mul();
    const InvId a = b.invariant("a", {m1, m2});
    const Ddg &g = b.graph();
    EXPECT_EQ(g.invariant(a).consumers.size(), 2u);
    EXPECT_EQ(g.node(m1).invariantUses.size(), 1u);
    EXPECT_EQ(g.numLiveInvariants(), 1);
}

/** Tarjan over a CSR of the live out-lists, as the testkit's
    reachability() builds it. */
AdjScc
sccOf(const Ddg &g)
{
    CsrAdj succ;
    succ.build(g.numNodes(), [&](auto &&emit) {
        for (NodeId u = 0; u < g.numNodes(); ++u) {
            for (EdgeId e : g.outEdges(u))
                emit(u, g.edge(e).dst);
        }
    });
    AdjScc scc;
    SccScratch scratch;
    stronglyConnectedComponents(
        g.numNodes(), [&](int v) { return succ.row(v); }, scc, scratch);
    return scc;
}

/** A component is a recurrence when it has several nodes or a
    self-edge. */
bool
isRecurrence(const Ddg &g, const AdjScc &scc, int c)
{
    if (scc.compSize(c) > 1)
        return true;
    const NodeId v = scc.compNodes(c)[0];
    for (EdgeId e : g.outEdges(v)) {
        if (g.edge(e).dst == v)
            return true;
    }
    return false;
}

TEST(GraphAlgo, SccFindsRecurrence)
{
    DdgBuilder b("rec");
    const NodeId a = b.add("a");
    const NodeId c = b.add("c");
    const NodeId d = b.add("d");
    b.flow(a, c);
    b.flow(c, d);
    b.flow(d, a, 1);  // Closes the cycle with distance 1.
    const Ddg g = b.take();

    const AdjScc scc = sccOf(g);
    EXPECT_EQ(scc.numComps(), 1);
    EXPECT_TRUE(isRecurrence(g, scc, 0));
}

TEST(GraphAlgo, SelfEdgeIsARecurrence)
{
    DdgBuilder b("self");
    const NodeId a = b.add("a");
    b.flow(a, a, 2);
    const Ddg g = b.take();
    const AdjScc scc = sccOf(g);
    ASSERT_EQ(scc.numComps(), 1);
    EXPECT_TRUE(isRecurrence(g, scc, 0));
}

/** Test-local reachability by DFS over live edges (u itself only when
    on a cycle) — the reference the SCC properties are checked against. */
std::vector<std::vector<bool>>
refReachability(const Ddg &g)
{
    const int n = g.numNodes();
    std::vector<std::vector<bool>> reach(
        std::size_t(n), std::vector<bool>(std::size_t(n), false));
    for (NodeId s = 0; s < n; ++s) {
        std::vector<NodeId> stack = {s};
        while (!stack.empty()) {
            const NodeId u = stack.back();
            stack.pop_back();
            for (EdgeId e : g.outEdges(u)) {
                const NodeId v = g.edge(e).dst;
                if (!reach[std::size_t(s)][std::size_t(v)]) {
                    reach[std::size_t(s)][std::size_t(v)] = true;
                    stack.push_back(v);
                }
            }
        }
    }
    return reach;
}

TEST(GraphAlgo, SccPartitionIsAPermutationAndComponentsAreMaximal)
{
    // Property test over the pinned-seed generated suite: the SCC
    // result is a partition (every node in exactly one component,
    // matching compOf), components are exactly the mutual-reachability
    // classes (so they are maximal), and the emission order is reverse
    // topological.
    SuiteParams params;
    params.numLoops = 40;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    for (const SuiteLoop &loop : suite) {
        const Ddg &g = loop.graph;
        const int n = g.numNodes();
        const AdjScc scc = sccOf(g);

        // Partition: each node appears exactly once, where compOf says.
        std::vector<int> seen(std::size_t(n), 0);
        for (int c = 0; c < scc.numComps(); ++c) {
            for (int i = 0; i < scc.compSize(c); ++i) {
                const NodeId v = scc.compNodes(c)[i];
                ++seen[std::size_t(v)];
                ASSERT_EQ(scc.compOf[std::size_t(v)], c);
            }
        }
        for (NodeId v = 0; v < n; ++v)
            ASSERT_EQ(seen[std::size_t(v)], 1) << g.name() << " node " << v;

        // Components = mutual reachability classes (maximality: two
        // mutually reachable nodes are never split across components).
        const auto reach = refReachability(g);
        for (NodeId u = 0; u < n; ++u) {
            for (NodeId v = 0; v < n; ++v) {
                const bool sameComp = scc.compOf[std::size_t(u)] ==
                                      scc.compOf[std::size_t(v)];
                const bool mutual =
                    u == v || (reach[std::size_t(u)][std::size_t(v)] &&
                               reach[std::size_t(v)][std::size_t(u)]);
                ASSERT_EQ(sameComp, mutual)
                    << g.name() << " nodes " << u << ", " << v;
            }
        }

        // isRecurrence(c) == some member lies on a cycle.
        for (int c = 0; c < scc.numComps(); ++c) {
            const NodeId v = scc.compNodes(c)[0];
            ASSERT_EQ(isRecurrence(g, scc, c),
                      bool(reach[std::size_t(v)][std::size_t(v)]));
        }

        // Reverse topological emission: a live edge between distinct
        // components points to the lower component index.
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            if (!g.edge(e).alive)
                continue;
            const int cs = scc.compOf[std::size_t(g.edge(e).src)];
            const int cd = scc.compOf[std::size_t(g.edge(e).dst)];
            if (cs != cd) {
                ASSERT_LT(cd, cs);
            }
        }
    }
}

TEST(GraphAlgo, TopologicalOrderRespectsDag)
{
    const Ddg g = buildPaperExampleLoop();
    std::vector<NodeId> order;
    ASSERT_TRUE(intraIterationOrder(g, order));
    ASSERT_EQ(order.size(), 4u);
    std::vector<int> pos(4);
    for (int i = 0; i < 4; ++i)
        pos[std::size_t(order[std::size_t(i)])] = i;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (g.edge(e).distance == 0) {
            EXPECT_LT(pos[std::size_t(g.edge(e).src)],
                      pos[std::size_t(g.edge(e).dst)]);
        }
    }
}

TEST(GraphAlgo, ZeroDistanceCycleHasNoOrder)
{
    DdgBuilder b("cycle");
    const NodeId a = b.add("a");
    const NodeId c = b.add("c");
    b.flow(a, c);
    b.flow(c, a);  // Distance 0 cycle: not executable.
    const Ddg g = b.take();
    std::vector<NodeId> order;
    EXPECT_FALSE(intraIterationOrder(g, order));
    EXPECT_TRUE(order.empty());
    std::string why;
    EXPECT_FALSE(verifyDdg(g, &why));
    EXPECT_NE(why.find("cycle"), std::string::npos);
}

TEST(GraphAlgo, KilledEdgesDoNotOrderAnIteration)
{
    // w -> v -> y -> z live; x -> z and z -> w killed. The killed
    // z -> w would close a zero-distance cycle, and the killed x -> z
    // must not release z before y is ordered.
    Ddg g("killed");
    const NodeId w = g.addNode(Opcode::Add);
    const NodeId v = g.addNode(Opcode::Add);
    const NodeId y = g.addNode(Opcode::Add);
    const NodeId z = g.addNode(Opcode::Add);
    const NodeId x = g.addNode(Opcode::Add);
    g.addEdge(w, v, DepKind::RegFlow);
    g.addEdge(v, y, DepKind::RegFlow);
    g.addEdge(y, z, DepKind::RegFlow);
    g.killEdge(g.addEdge(x, z, DepKind::RegFlow));
    g.killEdge(g.addEdge(z, w, DepKind::RegFlow));

    std::string why;
    EXPECT_TRUE(verifyDdg(g, &why)) << why;
    std::vector<NodeId> order;
    ASSERT_TRUE(intraIterationOrder(g, order));
    ASSERT_EQ(order.size(), 5u);
    std::vector<int> pos(5);
    for (int i = 0; i < 5; ++i)
        pos[std::size_t(order[std::size_t(i)])] = i;
    EXPECT_LT(pos[std::size_t(w)], pos[std::size_t(v)]);
    EXPECT_LT(pos[std::size_t(v)], pos[std::size_t(y)]);
    EXPECT_LT(pos[std::size_t(y)], pos[std::size_t(z)]);
}

TEST(GraphAlgo, ReachabilityThroughSccAndBeyond)
{
    //  a -> b <-> c -> d   (b,c recurrence)
    DdgBuilder bld("reach");
    const NodeId a = bld.add("a");
    const NodeId b = bld.add("b");
    const NodeId c = bld.add("c");
    const NodeId d = bld.add("d");
    bld.flow(a, b);
    bld.flow(b, c);
    bld.flow(c, b, 1);
    bld.flow(c, d);
    const Ddg g = bld.take();

    const BitMatrix reach = reachability(g);
    EXPECT_TRUE(reach.test(a, d));
    EXPECT_TRUE(reach.test(a, b));
    EXPECT_TRUE(reach.test(b, b));  // Via the cycle.
    EXPECT_TRUE(reach.test(c, c));
    EXPECT_FALSE(reach.test(a, a));
    EXPECT_FALSE(reach.test(d, a));
}

/** A random graph with multi-node cycles, self-edges, parallel edges
    and killed edges; about two live out-edges per node. */
Ddg
randomGraph(Rng &rng, int n)
{
    Ddg g("random");
    for (int i = 0; i < n; ++i)
        g.addNode(Opcode::Add);
    for (int i = 0; i < 3 * n; ++i) {
        const NodeId src = rng.range(0, n - 1);
        // Mostly forward edges with some back edges, so the graph has
        // both long acyclic stretches and strongly connected regions.
        const NodeId dst = rng.chance(0.8)
                               ? rng.range(src, std::min(n - 1, src + 8))
                               : rng.range(0, n - 1);
        const EdgeId e = g.addEdge(src, dst, DepKind::RegFlow,
                                   rng.range(0, 2));
        if (rng.chance(0.1))  // A parallel copy of the same edge.
            g.addEdge(src, dst, DepKind::Mem, rng.range(0, 2));
        if (rng.chance(0.3))
            g.killEdge(e);
    }
    return g;
}

/** Every node's out-list (in-list) is the ascending ids of the alive
    edges leaving (entering) it; returns the number of dead edges. */
int
expectAdjacencyHoldsLiveEdges(const Ddg &g)
{
    const auto n = std::size_t(g.numNodes());
    std::vector<std::vector<EdgeId>> out(n), in(n);
    int dead = 0;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive) {
            ++dead;
            continue;
        }
        out[std::size_t(edge.src)].push_back(e);
        in[std::size_t(edge.dst)].push_back(e);
    }
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        EXPECT_EQ(listOf(g.outEdges(v)), out[std::size_t(v)])
            << g.name() << " out-list of node " << v;
        EXPECT_EQ(listOf(g.inEdges(v)), in[std::size_t(v)])
            << g.name() << " in-list of node " << v;
    }
    return dead;
}

/** Every node's out-list, then every node's in-list. */
std::vector<std::vector<EdgeId>>
listsOf(const Ddg &g)
{
    std::vector<std::vector<EdgeId>> lists;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        lists.push_back(listOf(g.outEdges(v)));
    for (NodeId v = 0; v < g.numNodes(); ++v)
        lists.push_back(listOf(g.inEdges(v)));
    return lists;
}

/** A kill in `other` (a copy or move of `g`'s content) leaves `g` as
    it was, and both graphs' lists stay exact. */
void
expectKillStaysLocal(const Ddg &g, Ddg &other, EdgeId victim)
{
    const auto before = listsOf(g);
    ASSERT_EQ(listsOf(other), before);
    other.killEdge(victim);
    EXPECT_EQ(listsOf(g), before);
    EXPECT_NE(listsOf(other), before);
    expectAdjacencyHoldsLiveEdges(g);
    expectAdjacencyHoldsLiveEdges(other);
}

TEST(Ddg, AdjacencyListsHoldExactlyTheLiveEdges)
{
    // Splicing at each position of a list: kill its head, a middle
    // edge, its tail, and the only edge of a list; then add after the
    // kills, which must link at the new tails.
    Ddg g("splice");
    const NodeId a = g.addNode(Opcode::Add);
    const NodeId b = g.addNode(Opcode::Add);
    const NodeId c = g.addNode(Opcode::Add);
    std::vector<EdgeId> ab;
    for (int i = 0; i < 5; ++i)
        ab.push_back(g.addEdge(a, b, DepKind::RegFlow, i));
    const EdgeId only = g.addEdge(b, c, DepKind::RegFlow);
    g.killEdge(ab[0]);
    EXPECT_EQ(listOf(g.outEdges(a)),
              (std::vector<EdgeId>{ab[1], ab[2], ab[3], ab[4]}));
    g.killEdge(ab[2]);
    EXPECT_EQ(listOf(g.inEdges(b)),
              (std::vector<EdgeId>{ab[1], ab[3], ab[4]}));
    g.killEdge(ab[4]);
    EXPECT_EQ(listOf(g.outEdges(a)), (std::vector<EdgeId>{ab[1], ab[3]}));
    g.killEdge(only);
    EXPECT_TRUE(g.outEdges(b).empty());
    EXPECT_TRUE(g.inEdges(c).empty());
    EXPECT_EQ(expectAdjacencyHoldsLiveEdges(g), 4);
    const EdgeId late = g.addEdge(a, b, DepKind::Mem, 1);
    const EdgeId again = g.addEdge(b, c, DepKind::RegFlow);
    EXPECT_EQ(listOf(g.outEdges(a)),
              (std::vector<EdgeId>{ab[1], ab[3], late}));
    EXPECT_EQ(listOf(g.inEdges(c)), std::vector<EdgeId>{again});
    expectAdjacencyHoldsLiveEdges(g);

    // Copies and moves carry equal lists and share no links with the
    // source.
    Ddg copy = g;
    expectKillStaysLocal(g, copy, ab[3]);
    Ddg assigned("assigned");
    assigned = g;
    expectKillStaysLocal(g, assigned, late);
    Ddg source = g;
    Ddg moved = std::move(source);
    expectKillStaysLocal(g, moved, ab[1]);
    Ddg moveAssigned("move-assigned");
    source = g;
    moveAssigned = std::move(source);
    expectKillStaysLocal(g, moveAssigned, again);

    Rng rng(0xad1);
    int dead = 0;
    for (const int n : {1, 8, 65}) {
        for (int trial = 0; trial < 8; ++trial)
            dead += expectAdjacencyHoldsLiveEdges(randomGraph(rng, n));
    }
    EXPECT_GT(dead, 0);

    // The graphs iterative spilling leaves behind: use edges killed,
    // fused loads and stores appended, round after round.
    SuiteParams params;
    params.numLoops = 200;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    const Machine m = Machine::p2l4();
    int spilledDead = 0;
    for (const int registers : {8, 16}) {
        PipelinerOptions opts;
        opts.registers = registers;
        for (const SuiteLoop &loop : suite) {
            const PipelineResult r = spillStrategy(loop.graph, m, opts);
            spilledDead += expectAdjacencyHoldsLiveEdges(r.graph());
        }
    }
    EXPECT_GT(spilledDead, 0);
}

TEST(GraphAlgo, ReachabilityMatchesReferenceDfs)
{
    // Differential against refReachability on random graphs, across
    // the sizes at which rows span zero, one, and more words.
    Rng rng(0x5eed);
    int multiNodeSccs = 0, selfEdges = 0;
    for (const int n : {0, 1, 63, 64, 65, 128, 129}) {
        for (int trial = 0; trial < 12; ++trial) {
            const Ddg g = randomGraph(rng, n);
            const AdjScc scc = sccOf(g);
            for (int c = 0; c < scc.numComps(); ++c)
                multiNodeSccs += scc.compSize(c) > 1;
            for (EdgeId e = 0; e < g.numEdges(); ++e) {
                selfEdges += g.edge(e).alive &&
                             g.edge(e).src == g.edge(e).dst;
            }
            const BitMatrix reach = reachability(g);
            ASSERT_EQ(reach.rows(), n);
            ASSERT_EQ(reach.cols(), n);
            const auto ref = refReachability(g);
            for (NodeId u = 0; u < n; ++u) {
                for (NodeId v = 0; v < n; ++v) {
                    ASSERT_EQ(reach.test(u, v),
                              bool(ref[std::size_t(u)][std::size_t(v)]))
                        << "n " << n << " trial " << trial << " nodes "
                        << u << ", " << v;
                }
            }
        }
    }
    EXPECT_GT(multiNodeSccs, 0);
    EXPECT_GT(selfEdges, 0);
}

TEST(GraphAlgo, CsrSccAndClosuresMatchReference)
{
    // The CSR path the schedulers use: successor rows in edge-id
    // order, Tarjan over the CSR (same numbering as Tarjan over vector
    // rows fed the same successors), and the closure against the
    // reference DFS.
    Rng rng(0xc5a);
    for (const int n : {0, 1, 63, 64, 65, 129}) {
        for (int trial = 0; trial < 8; ++trial) {
            const Ddg g = randomGraph(rng, n);
            auto forEachLive = [&](auto &&emit) {
                for (EdgeId e = 0; e < g.numEdges(); ++e) {
                    if (g.edge(e).alive)
                        emit(g.edge(e).src, g.edge(e).dst);
                }
            };
            CsrAdj succ;
            succ.build(n, forEachLive);
            std::vector<std::vector<int>> rows(static_cast<std::size_t>(n));
            forEachLive([&](int a, int b) {
                rows[std::size_t(a)].push_back(b);
            });
            for (NodeId v = 0; v < n; ++v) {
                const CsrAdj::Row row = succ.row(v);
                ASSERT_EQ(std::vector<int>(row.begin(), row.end()),
                          rows[std::size_t(v)]);
            }

            AdjScc scc, ref;
            SccScratch scratch;
            stronglyConnectedComponents(
                n, [&](int v) { return succ.row(v); }, scc, scratch);
            stronglyConnectedComponents(
                n,
                [&](int v) -> const std::vector<int> & {
                    return rows[std::size_t(v)];
                },
                ref, scratch);
            ASSERT_EQ(scc.compOf, ref.compOf);
            ASSERT_EQ(scc.nodes, ref.nodes);

            BitMatrix down;
            transitiveClosure(
                scc, [&](int v) { return succ.row(v); }, down);
            const auto reach = refReachability(g);
            for (NodeId u = 0; u < n; ++u) {
                for (NodeId v = 0; v < n; ++v) {
                    const bool r = reach[std::size_t(u)][std::size_t(v)];
                    ASSERT_EQ(down.test(u, v), r)
                        << "n " << n << " trial " << trial;
                }
            }
        }
    }
}

TEST(Verify, AcceptsPaperExample)
{
    std::string why;
    EXPECT_TRUE(verifyDdg(buildPaperExampleLoop(), &why)) << why;
}

TEST(Verify, RejectsFusedEdgeWithDistance)
{
    DdgBuilder b("fused");
    const NodeId ld = b.load();
    const NodeId add = b.add();
    Ddg g = b.take();
    g.addEdge(ld, add, DepKind::RegFlow, 1, /*non_spillable=*/true);
    std::string why;
    EXPECT_FALSE(verifyDdg(g, &why));
}

TEST(Verify, RejectsSpillLoadWithoutRef)
{
    DdgBuilder b("sl");
    Ddg g = b.take();
    const NodeId l =
        g.addNode(Opcode::Load, "Ls", NodeOrigin::SpillLoad);
    (void)l;
    std::string why;
    EXPECT_FALSE(verifyDdg(g, &why));
    EXPECT_NE(why.find("SpillRef"), std::string::npos);
}

TEST(Opcode, RoundTripNames)
{
    for (int i = 0; i < numOpcodes; ++i) {
        const Opcode op = Opcode(i);
        EXPECT_EQ(findOpcode(opcodeName(op)), op);
    }
    EXPECT_EQ(findOpcode("bogus"), std::nullopt);
}

TEST(Opcode, FuClassesMatchPaperMachine)
{
    const Machine m = Machine::p1l4();
    auto classNameOf = [&](Opcode op) { return m.className(m.classOf(op)); };
    EXPECT_EQ(classNameOf(Opcode::Load), "mem");
    EXPECT_EQ(classNameOf(Opcode::Store), "mem");
    EXPECT_EQ(classNameOf(Opcode::Add), "adder");
    EXPECT_EQ(classNameOf(Opcode::Mul), "mult");
    EXPECT_EQ(classNameOf(Opcode::Div), "divsqrt");
    EXPECT_EQ(classNameOf(Opcode::Sqrt), "divsqrt");
    EXPECT_TRUE(producesValue(Opcode::Load));
    EXPECT_FALSE(producesValue(Opcode::Store));
    EXPECT_FALSE(producesValue(Opcode::Nop));
}

} // namespace
} // namespace swp
