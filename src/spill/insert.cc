#include "spill/insert.hh"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "support/diag.hh"

namespace swp
{

namespace
{

/** Live fused register-flow in-edges of a node (stagger base). */
int
countFusedInEdges(const Ddg &g, NodeId n)
{
    int count = 0;
    for (EdgeId e : g.inEdges(n)) {
        const Edge &edge = g.edge(e);
        if (edge.kind == DepKind::RegFlow && edge.nonSpillable)
            ++count;
    }
    return count;
}

/**
 * Insert a spill load feeding `use`, reading per `ref`. The fused delay
 * is the load latency plus one cycle per fused sibling already feeding
 * the consumer, so the reloads of one consumer occupy distinct rows.
 */
NodeId
addSpillLoad(Ddg &g, const Machine &m, NodeId consumer,
             const SpillRef &ref, const std::string &base)
{
    const int delay =
        m.latency(Opcode::Load) + countFusedInEdges(g, consumer);
    const NodeId load = g.addNode(
        Opcode::Load, "Ls_" + base + "_" + g.node(consumer).name,
        NodeOrigin::SpillLoad);
    g.node(load).spillRef = ref;
    g.node(load).nonSpillableValue = true;
    const EdgeId e =
        g.addEdge(load, consumer, DepKind::RegFlow, 0,
                  /*non_spillable=*/true);
    g.edge(e).fusedDelay = delay;
    return load;
}

void
spillInvariant(Ddg &g, const Machine &m, InvId inv)
{
    SWP_ASSERT(!g.invariant(inv).spilled, "invariant ",
               g.invariant(inv).name, " spilled twice");
    SWP_ASSERT(g.invariant(inv).spillable, "invariant ",
               g.invariant(inv).name, " is not spillable");
    const std::string invName = g.invariant(inv).name;
    const std::vector<NodeId> consumers = g.invariant(inv).consumers;

    // The store that parks the invariant in memory executes before the
    // loop, so only the per-use reloads cost anything inside the kernel.
    for (NodeId consumer : consumers) {
        SpillRef ref;
        ref.kind = SpillRef::Kind::InvariantMem;
        ref.value = inv;
        addSpillLoad(g, m, consumer, ref, invName);

        // The consumer now receives the value through a register; drop
        // one direct invariant use.
        auto &uses = g.node(consumer).invariantUses;
        const auto it = std::find(uses.begin(), uses.end(), inv);
        SWP_ASSERT(it != uses.end(), "invariant bookkeeping out of sync");
        uses.erase(it);
    }
    g.invariant(inv).consumers.clear();
    g.invariant(inv).spilled = true;
}

/**
 * The store that parks a computed value for its reloads. A value spill
 * reuses a same-iteration store of the value when there is one: its
 * edge stays, fused, and leaves `uses`. A use spill reuses the spill
 * store an earlier use spill added. Otherwise a fresh spill store is
 * fused after the producer.
 */
NodeId
parkValue(Ddg &g, const Machine &m, NodeId producer, bool wholeValue,
          std::vector<EdgeId> &uses)
{
    const int latency = m.latency(g.node(producer).op);
    if (wholeValue) {
        const EdgeId reused = reusableStoreConsumer(g, producer);
        if (reused >= 0) {
            // The fused in-edges counted include this one, so the delay
            // is one more than a fresh store's.
            const NodeId store = g.edge(reused).dst;
            g.edge(reused).nonSpillable = true;
            g.edge(reused).fusedDelay =
                latency + countFusedInEdges(g, store);
            uses.erase(std::find(uses.begin(), uses.end(), reused));
            return store;
        }
    } else if (const NodeId parked = existingSpillStore(g, producer);
               parked != invalidNode) {
        return parked;
    }
    const NodeId store = g.addNode(Opcode::Store,
                                   "Ss_" + g.node(producer).name,
                                   NodeOrigin::SpillStore);
    const EdgeId e = g.addEdge(producer, store, DepKind::RegFlow, 0,
                               /*non_spillable=*/true);
    g.edge(e).fusedDelay = latency;
    // The residual producer->store lifetime must never be re-selected;
    // further long uses can still be peeled off through the parked copy.
    g.node(producer).nonSpillableValue = true;
    return store;
}

/**
 * Serve `uses` of `producer` from memory: every use of the value
 * (`wholeValue`) or the one use edge of a use spill. A load's value
 * already lives in memory, so each use re-loads it with the use's own
 * iteration shift; the original load keeps running but these register
 * edges disappear. Any other value is parked (parkValue) and each use
 * reloads the parked slot, tied to the store by a memory edge that
 * carries the use's distance.
 */
void
spillUses(Ddg &g, const Machine &m, NodeId producer,
          std::vector<EdgeId> uses, bool wholeValue)
{
    // Note: addNode() may reallocate the node table, so no Node&
    // reference is held across insertions; the name is copied.
    const std::string prodName = g.node(producer).name;
    SpillRef ref;
    ref.kind = SpillRef::Kind::ReloadStream;
    ref.value = producer;
    if (g.node(producer).op != Opcode::Load) {
        ref.kind = SpillRef::Kind::StoreSlot;
        ref.value = parkValue(g, m, producer, wholeValue, uses);
    }
    for (EdgeId e : uses) {
        const Edge edge = g.edge(e);
        g.killEdge(e);
        ref.shift = edge.distance;
        const NodeId load = addSpillLoad(g, m, edge.dst, ref, prodName);
        if (ref.kind == SpillRef::Kind::StoreSlot)
            g.addEdge(ref.value, load, DepKind::Mem, edge.distance);
    }
    // What is left of a spilled value (a tie to its store, or nothing)
    // must never be re-selected.
    if (wholeValue)
        g.node(producer).nonSpillableValue = true;
}

} // namespace

void
insertSpill(Ddg &g, const Machine &m, const SpillCandidate &cand)
{
    if (cand.isInvariant) {
        spillInvariant(g, m, cand.inv);
        return;
    }
    const NodeId producer = cand.node;
    if (cand.useEdge >= 0) {
        const Edge &use = g.edge(cand.useEdge);
        SWP_ASSERT(use.alive && use.src == producer,
                   "stale use-spill candidate");
        spillUses(g, m, producer, {cand.useEdge}, /*wholeValue=*/false);
        return;
    }
    SWP_ASSERT(!g.node(producer).nonSpillableValue, "value of ",
               g.node(producer).name, " is non-spillable");
    std::vector<EdgeId> uses = g.valueUses(producer);
    SWP_ASSERT(!uses.empty(), "spilling dead value of ",
               g.node(producer).name);
    spillUses(g, m, producer, std::move(uses), /*wholeValue=*/true);
}

} // namespace swp
