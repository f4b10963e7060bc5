#include "spill/select.hh"

#include <algorithm>

#include "support/diag.hh"

namespace swp
{

const char *
spillHeuristicName(SpillHeuristic h)
{
    switch (h) {
      case SpillHeuristic::MaxLT: return "Max(LT)";
      case SpillHeuristic::MaxLTOverTraf: return "Max(LT/Traf)";
    }
    SWP_PANIC("unknown spill heuristic ", int(h));
}

namespace
{

/**
 * A store consumer can serve as the spill store when it stores exactly
 * this value (single register input, no invariant contribution) in the
 * same iteration it is produced (distance 0).
 */
bool
reusableStoreConsumer(const Ddg &g, EdgeId use)
{
    const Edge &edge = g.edge(use);
    if (edge.distance != 0)
        return false;
    const Node &consumer = g.node(edge.dst);
    if (consumer.op != Opcode::Store)
        return false;
    if (!consumer.invariantUses.empty())
        return false;
    int regInputs = 0;
    for (EdgeId e : g.inEdges(edge.dst)) {
        if (g.edge(e).kind == DepKind::RegFlow)
            ++regInputs;
    }
    return regInputs == 1;
}

} // namespace

int
spillCost(const Ddg &g, NodeId producer)
{
    const auto uses = g.valueUses(producer);
    if (uses.empty())
        return 0;

    if (g.node(producer).op == Opcode::Load) {
        // Re-load from the original location: one load per use, no store.
        return int(uses.size());
    }
    for (EdgeId e : uses) {
        if (reusableStoreConsumer(g, e)) {
            // The existing store spills the value; every other use gets
            // a reload.
            return int(uses.size()) - 1;
        }
    }
    // General case: one store plus one load per use.
    return int(uses.size()) + 1;
}

NodeId
existingSpillStore(const Ddg &g, NodeId producer)
{
    for (EdgeId e : g.valueUses(producer)) {
        const Edge &edge = g.edge(e);
        if (edge.nonSpillable &&
            g.node(edge.dst).origin == NodeOrigin::SpillStore) {
            return edge.dst;
        }
    }
    return invalidNode;
}

namespace
{

/**
 * Use-granularity candidate for one value: serving the latest use from
 * memory shrinks the live range by the distance to the second-latest
 * use's read. Only worthwhile for multi-use values whose latest use is
 * strictly later than the rest.
 */
std::optional<SpillCandidate>
useCandidate(const Ddg &g, const LifetimeInfo &lifetimes, NodeId u)
{
    const Lifetime &lt = lifetimes.of(u);
    if (!lt.live || lt.lastUse < 0)
        return std::nullopt;
    const auto uses = g.valueUses(u);
    if (uses.size() < 2 || lt.end <= lt.secondEnd)
        return std::nullopt;

    const Edge &use = g.edge(lt.lastUse);
    if (use.nonSpillable)
        return std::nullopt;  // A reload/store tie must stay.

    // Determine whether the value is (or can be) parked in memory.
    const bool producerIsLoad = g.node(u).op == Opcode::Load;
    const bool parked = existingSpillStore(g, u) != invalidNode;
    if (g.node(u).nonSpillableValue && !producerIsLoad && !parked)
        return std::nullopt;

    SpillCandidate cand;
    cand.node = u;
    cand.useEdge = lt.lastUse;
    cand.lifetime = lt.end - lt.secondEnd;
    cand.cost = (producerIsLoad || parked) ? 1 : 2;
    return cand;
}

} // namespace

void
spillCandidates(const Ddg &g, const LifetimeInfo &lifetimes,
                bool include_uses, std::vector<SpillCandidate> &out)
{
    out.clear();
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        const Lifetime &lt = lifetimes.of(u);
        if (!lt.live || lt.length() <= 0)
            continue;
        if (g.node(u).nonSpillableValue)
            continue;
        SpillCandidate cand;
        cand.node = u;
        cand.lifetime = lt.length();
        cand.cost = spillCost(g, u);
        out.push_back(cand);
    }
    if (include_uses) {
        for (NodeId u = 0; u < g.numNodes(); ++u) {
            if (auto cand = useCandidate(g, lifetimes, u))
                out.push_back(*cand);
        }
    }

    for (InvId i = 0; i < g.numInvariants(); ++i) {
        const Invariant &inv = g.invariant(i);
        if (inv.spilled || !inv.spillable || inv.consumers.empty())
            continue;
        SpillCandidate cand;
        cand.isInvariant = true;
        cand.inv = i;
        // A loop invariant occupies its register for the whole kernel:
        // lifetime II (Section 3), freeing exactly one register.
        cand.lifetime = lifetimes.ii;
        cand.cost = int(inv.consumers.size());
        out.push_back(cand);
    }
}

std::vector<SpillCandidate>
spillCandidates(const Ddg &g, const LifetimeInfo &lifetimes,
                bool include_uses)
{
    std::vector<SpillCandidate> out;
    spillCandidates(g, lifetimes, include_uses, out);
    return out;
}

namespace
{

bool
better(const SpillCandidate &a, const SpillCandidate &b, SpillHeuristic h)
{
    switch (h) {
      case SpillHeuristic::MaxLT:
        if (a.lifetime != b.lifetime)
            return a.lifetime > b.lifetime;
        return a.cost < b.cost;
      case SpillHeuristic::MaxLTOverTraf:
        if (a.ratio() != b.ratio())
            return a.ratio() > b.ratio();
        return a.lifetime > b.lifetime;
    }
    SWP_PANIC("unknown spill heuristic ", int(h));
}

} // namespace

std::optional<SpillCandidate>
selectOne(const std::vector<SpillCandidate> &candidates, SpillHeuristic h)
{
    const SpillCandidate *best = nullptr;
    for (const SpillCandidate &cand : candidates) {
        if (!best || better(cand, *best, h))
            best = &cand;
    }
    if (!best)
        return std::nullopt;
    return *best;
}

void
selectMultiple(const std::vector<SpillCandidate> &candidates,
               SpillHeuristic h, const LifetimeInfo &lifetimes,
               int available, std::vector<SpillCandidate> &chosen)
{
    chosen.clear();
    std::vector<SpillCandidate> pool(candidates);
    std::vector<NodeId> takenNodes;
    std::stable_sort(pool.begin(), pool.end(),
                     [&](const SpillCandidate &a, const SpillCandidate &b) {
                         return better(a, b, h);
                     });

    // Optimistic estimate: every spilled lifetime removes its largest
    // possible per-cycle register contribution, ceil(LT/II); spilled
    // invariants free exactly their one register.
    long estimate = lifetimes.totalRegisterBound();
    const int ii = lifetimes.ii;
    for (const SpillCandidate &cand : pool) {
        if (estimate <= available)
            break;
        // One action per value per round: a value-level spill
        // invalidates any use-level candidate of the same node (and
        // vice versa).
        if (!cand.isInvariant &&
            std::find(takenNodes.begin(), takenNodes.end(), cand.node) !=
                takenNodes.end()) {
            continue;
        }
        if (!cand.isInvariant)
            takenNodes.push_back(cand.node);
        chosen.push_back(cand);
        if (cand.isInvariant)
            estimate -= 1;
        else
            estimate -= (cand.lifetime + ii - 1) / ii;
    }
    // The caller only asks for spills when the allocation failed; the
    // MaxLive bound can be a register or two below the actual
    // requirement, so always make progress.
    if (chosen.empty() && !pool.empty())
        chosen.push_back(pool.front());
}

std::vector<SpillCandidate>
selectMultiple(const std::vector<SpillCandidate> &candidates,
               SpillHeuristic h, const LifetimeInfo &lifetimes,
               int available)
{
    std::vector<SpillCandidate> chosen;
    selectMultiple(candidates, h, lifetimes, available, chosen);
    return chosen;
}

} // namespace swp
