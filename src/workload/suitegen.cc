#include "workload/suitegen.hh"

#include <algorithm>
#include <cstdint>
#include <string>

#include "ir/verify.hh"
#include "support/bitmatrix.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "support/strutil.hh"

namespace swp
{

namespace
{

/** Probability a loop is "heavy" (APSI-50-like state). */
constexpr double heavyFraction = 0.030;

/** Probability a (non-heavy) loop carries a true recurrence. */
constexpr double recurrenceFraction = 0.35;

/** Probability of extra cross-iteration uses in normal loops. */
constexpr double carriedUseFraction = 0.40;

/** Mutable generation state for one loop. */
struct LoopGen
{
    Rng rng;
    Ddg g;
    std::vector<NodeId> values;  ///< Nodes producing a value, in order.
    std::vector<int> useCount;   ///< Register uses per node so far.
    /**
     * reach.test(u, v): a path of one or more live edges leads from u
     * to v. Built by closure() on first use; carried() keeps it exact.
     */
    BitMatrix reach;
    bool reachBuilt = false;

    LoopGen(std::uint64_t seed, const std::string &name)
        : rng(seed), g(name)
    {}

    NodeId
    emit(Opcode op)
    {
        const NodeId n = g.addNode(op);
        useCount.push_back(0);
        if (producesValue(op))
            values.push_back(n);
        return n;
    }

    /** Pick an operand, biased toward recently produced values. */
    NodeId
    pickOperand()
    {
        SWP_ASSERT(!values.empty(), "no values to consume");
        const int k = int(values.size());
        // Triangular bias toward the back of the list (recent values),
        // producing the chain-heavy graphs typical of numeric kernels.
        const int a = rng.range(0, k - 1);
        const int b = rng.range(0, k - 1);
        return values[std::size_t(std::max(a, b))];
    }

    void
    use(NodeId producer, NodeId consumer, int distance = 0)
    {
        g.addEdge(producer, consumer, DepKind::RegFlow, distance);
        ++useCount[std::size_t(producer)];
    }

    /**
     * The reachability closure, built on the first call. Until the
     * first loop-carried edge every edge runs from a lower to a higher
     * node id, so one pass in descending id order finds each
     * successor's row complete.
     */
    const BitMatrix &
    closure()
    {
        if (reachBuilt)
            return reach;
        const int n = g.numNodes();
        reach.reset(n, n);
        for (NodeId u = n - 1; u >= 0; --u) {
            std::uint64_t *row = reach.row(u);
            for (EdgeId e : g.outEdges(u)) {
                const NodeId v = g.edge(e).dst;
                SWP_ASSERT(v > u, "closure() needs an id-ordered graph");
                reach.set(u, v);
                reach.orRowInto(v, row);
            }
        }
        reachBuilt = true;
        return reach;
    }

    /**
     * use() for a loop-carried edge, keeping the closure exact: every
     * node that is `producer` or reaches it now also reaches
     * `consumer` and everything `consumer` reaches. Updating in place
     * is safe: consumer's own row, when it is updated, gains only
     * consumer, which every updated row gains anyway.
     */
    void
    carried(NodeId producer, NodeId consumer, int distance)
    {
        closure();
        use(producer, consumer, distance);
        for (NodeId u = 0; u < reach.rows(); ++u) {
            if (u == producer || reach.test(u, producer)) {
                reach.set(u, consumer);
                reach.orRowInto(consumer, reach.row(u));
            }
        }
    }
};

/** Opcode mix for arithmetic nodes (weights). */
Opcode
pickArith(Rng &rng, bool allow_expensive)
{
    // add-heavy FP mix; divide/sqrt are rare and gated per loop because
    // their non-pipelined units dominate ResMII when present.
    static const int weights[4] = {56, 36, 6, 2};
    const int idx =
        rng.pickWeighted(weights, allow_expensive ? 4 : 2);
    switch (idx) {
      case 0: return Opcode::Add;
      case 1: return Opcode::Mul;
      case 2: return Opcode::Div;
      default: return Opcode::Sqrt;
    }
}

/** Pick the loop body size by class (small loops dominate). */
int
pickSize(Rng &rng)
{
    static const int classWeights[4] = {58, 30, 10, 2};
    switch (rng.pickWeighted(classWeights, 4)) {
      case 0: return rng.range(4, 12);
      case 1: return rng.range(13, 30);
      case 2: return rng.range(31, 60);
      default: return rng.range(61, 90);
    }
}

/**
 * Add a true recurrence: a loop-carried edge closing a path that
 * already exists, constraining RecMII.
 */
void
addRecurrence(LoopGen &gen)
{
    const BitMatrix &reach = gen.closure();
    // The candidates are the (ancestor a, descendant b) value pairs
    // with a != b, ordered by a, then b, in gen.values order, which is
    // ascending node id. They are counted per ancestor row by popcount
    // against the value mask, and the k-th is found without listing
    // them.
    BitRow valueMask;
    valueMask.reset(gen.g.numNodes());
    for (NodeId v : gen.values)
        valueMask.set(v);
    const auto descendants = [&](NodeId a, int w) {
        std::uint64_t word = reach.row(a)[w] & valueMask.words()[w];
        if (w == a >> 6)
            word &= ~(std::uint64_t(1) << (a & 63));
        return word;
    };
    int pairs = 0;
    for (NodeId a : gen.values) {
        for (int w = 0; w < reach.wordsPerRow(); ++w)
            pairs += popCount(descendants(a, w));
    }
    if (pairs == 0)
        return;
    int k = gen.rng.range(0, pairs - 1);
    for (NodeId from : gen.values) {
        for (int w = 0; w < reach.wordsPerRow(); ++w) {
            std::uint64_t word = descendants(from, w);
            const int count = popCount(word);
            if (k >= count) {
                k -= count;
                continue;
            }
            for (; k > 0; --k)
                word &= word - 1;
            const NodeId to = w * 64 + countTrailingZeros(word);
            // Close the cycle: the descendant's value feeds the
            // ancestor in a later iteration.
            gen.carried(to, from, gen.rng.range(1, 2));
            return;
        }
    }
}

/**
 * Add a cross-iteration use without creating a cycle: consume an
 * existing value at distance >= 1 from a node it cannot reach. Distance
 * components like these are what the increase-II strategy cannot
 * reduce.
 */
void
addCarriedUse(LoopGen &gen, int max_distance)
{
    const BitMatrix &reach = gen.closure();
    for (int attempt = 0; attempt < 8; ++attempt) {
        const NodeId producer = gen.values[std::size_t(
            gen.rng.range(0, int(gen.values.size()) - 1))];
        const NodeId consumer = NodeId(
            gen.rng.range(0, gen.g.numNodes() - 1));
        if (consumer == producer)
            continue;
        if (gen.g.node(consumer).op == Opcode::Load)
            continue;  // Loads take no register operands here.
        // Adding producer->consumer with distance >= 1 is always legal
        // (no zero-distance cycle possible), but avoid creating an
        // unintended recurrence: skip when consumer reaches producer.
        if (reach.test(consumer, producer))
            continue;
        gen.carried(producer, consumer, gen.rng.range(1, max_distance));
        return;
    }
}

SuiteLoop
generateNormalLoop(LoopGen &gen)
{
    const int size = pickSize(gen.rng);
    const bool allowExpensive = gen.rng.chance(0.15);

    // Memory interface: roughly a third of a numeric loop body.
    const int numLoads = std::max(1, int(size * 0.25 +
                                         gen.rng.range(0, 2)));
    const int numStores = std::max(1, int(size * 0.09));
    const int numArith = std::max(1, size - numLoads - numStores);

    for (int i = 0; i < numLoads; ++i)
        gen.emit(Opcode::Load);

    // Invariants (scalars kept in registers across the loop).
    const int numInvs = gen.rng.range(0, 4);
    std::vector<InvId> invs;
    for (int i = 0; i < numInvs; ++i)
        invs.push_back(gen.g.addInvariant());

    for (int i = 0; i < numArith; ++i) {
        // IF-converted conditionals leave select operations behind
        // (Section 5: loops with conditionals are converted to single
        // basic blocks with [2] before pipelining).
        const bool ifConverted =
            gen.values.size() >= 3 && gen.rng.chance(0.06);
        const Opcode op = ifConverted
                              ? Opcode::Select
                              : pickArith(gen.rng, allowExpensive);
        // Choose operands before emitting so a node can never pick its
        // own value (a zero-distance cycle).
        const int arity = op == Opcode::Select
                              ? 3
                              : (op == Opcode::Add || op == Opcode::Mul)
                                    ? gen.rng.range(1, 2)
                                    : 1;
        NodeId operands[3] = {};
        for (int a = 0; a < arity; ++a)
            operands[a] = gen.pickOperand();
        const NodeId n = gen.emit(op);
        for (int a = 0; a < arity; ++a)
            gen.use(operands[a], n);
        if (!invs.empty() && gen.rng.chance(0.18)) {
            gen.g.addInvariantUse(
                invs[std::size_t(gen.rng.range(0, numInvs - 1))], n);
        }
    }

    // Stores and dead-value cleanup: every produced value gets a use,
    // as in real compiled loops where results land in arrays.
    std::vector<NodeId> unused;
    for (NodeId v : gen.values) {
        if (gen.useCount[std::size_t(v)] == 0)
            unused.push_back(v);
    }
    int storesEmitted = 0;
    // Prefer storing otherwise-dead values (sinks of the computation).
    for (auto it = unused.rbegin();
         it != unused.rend() && storesEmitted < numStores; ++it) {
        const NodeId st = gen.emit(Opcode::Store);
        gen.use(*it, st);
        ++storesEmitted;
    }
    while (storesEmitted < numStores) {
        const NodeId st = gen.emit(Opcode::Store);
        gen.use(gen.pickOperand(), st);
        ++storesEmitted;
    }
    for (NodeId v : gen.values) {
        if (gen.useCount[std::size_t(v)] == 0) {
            const NodeId st = gen.emit(Opcode::Store);
            gen.use(v, st);
        }
    }

    // Loop-carried structure.
    if (gen.rng.chance(recurrenceFraction))
        addRecurrence(gen);
    if (gen.rng.chance(carriedUseFraction)) {
        const int extra = gen.rng.range(1, 3);
        for (int i = 0; i < extra; ++i)
            addCarriedUse(gen, 4);
    }

    // Loop-carried memory dependences: a load reads locations a store
    // of a previous iteration may have written (the paper's MemE
    // class). Distance >= 1 keeps the iteration body acyclic.
    if (gen.rng.chance(0.15)) {
        std::vector<NodeId> loads, stores;
        for (NodeId n = 0; n < gen.g.numNodes(); ++n) {
            if (gen.g.node(n).op == Opcode::Load)
                loads.push_back(n);
            else if (gen.g.node(n).op == Opcode::Store)
                stores.push_back(n);
        }
        if (!loads.empty() && !stores.empty()) {
            const NodeId st = stores[std::size_t(
                gen.rng.range(0, int(stores.size()) - 1))];
            const NodeId ld = loads[std::size_t(
                gen.rng.range(0, int(loads.size()) - 1))];
            gen.g.addEdge(st, ld, DepKind::Mem, gen.rng.range(1, 3));
        }
    }

    SuiteLoop loop;
    loop.iterations = 8 * gen.rng.range(4, 160);
    loop.graph = std::move(gen.g);
    return loop;
}

/**
 * A heavy loop: APSI-50-like cross-iteration state. Many values are
 * consumed several iterations later, so their distance components alone
 * occupy tens of registers at any II, and a band of invariants adds a
 * constant demand on top.
 */
SuiteLoop
generateHeavyLoop(LoopGen &gen)
{
    const int numTaps = gen.rng.range(9, 18);
    const int numInvs = gen.rng.range(4, 8);

    std::vector<InvId> invs;
    for (int i = 0; i < numInvs; ++i)
        invs.push_back(gen.g.addInvariant());

    // A bank of second-order filter taps: each tap loads a sample,
    // scales it, and combines it with its own value from delta
    // iterations ago (distance component = delta registers, forever).
    std::vector<NodeId> taps;
    for (int t = 0; t < numTaps; ++t) {
        const NodeId ld = gen.emit(Opcode::Load);
        const NodeId mul = gen.emit(Opcode::Mul);
        gen.use(ld, mul);
        gen.g.addInvariantUse(invs[std::size_t(t % numInvs)], mul);
        const NodeId add = gen.emit(Opcode::Add);
        gen.use(mul, add);
        gen.use(add, add, gen.rng.range(2, 4));  // Self-recurrence.
        taps.push_back(add);
    }

    // Combine the taps pairwise and store the result.
    std::vector<NodeId> frontier = taps;
    while (frontier.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < frontier.size(); i += 2) {
            const NodeId add = gen.emit(Opcode::Add);
            gen.use(frontier[i], add);
            gen.use(frontier[i + 1], add);
            next.push_back(add);
        }
        if (frontier.size() % 2)
            next.push_back(frontier.back());
        frontier = std::move(next);
    }
    const NodeId st = gen.emit(Opcode::Store);
    gen.use(frontier[0], st);

    SuiteLoop loop;
    // These state-heavy kernels are the hot loops of their programs:
    // weighted so the non-converging set carries roughly the paper's
    // share of all cycles (~20% at 64 registers, ~30% at 32).
    loop.iterations = 32 * gen.rng.range(48, 384);
    loop.graph = std::move(gen.g);
    return loop;
}

} // namespace

SuiteLoop
generateSuiteLoop(const SuiteParams &params, int index)
{
    LoopGen gen(params.seed * 0x9e3779b97f4a7c15ull + std::uint64_t(index),
                strprintf("loop%04d", index));
    const bool heavy = gen.rng.chance(heavyFraction);
    SuiteLoop loop = heavy ? generateHeavyLoop(gen) : generateNormalLoop(gen);
    std::string why;
    SWP_ASSERT(verifyDdg(loop.graph, &why), "generated loop ", index,
               " is malformed: ", why);
    return loop;
}

std::vector<SuiteLoop>
generateSuite(const SuiteParams &params)
{
    std::vector<SuiteLoop> suite;
    suite.reserve(std::size_t(params.numLoops));
    for (int i = 0; i < params.numLoops; ++i)
        suite.push_back(generateSuiteLoop(params, i));
    return suite;
}

} // namespace swp
