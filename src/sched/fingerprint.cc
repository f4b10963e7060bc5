#include "sched/fingerprint.hh"

#include "machine/machdesc.hh"

namespace swp
{

std::uint64_t
graphFingerprint(const Ddg &g)
{
    // One walk per graph *content*: the cache slot lives in the CoW
    // core, and every mutation path resets it, so the per-probe calls
    // of an II search all hit here. Concurrent computes for one shared
    // core store the same value; 0 doubles as the "unset" sentinel
    // (remapped below).
    const std::uint64_t cached =
        g.core_->cachedFp.load(std::memory_order_relaxed);
    if (cached)
        return cached;

    Fingerprint fp;
    fp.mix(g.name());
    fp.mix(std::uint64_t(g.numNodes()));
    fp.mix(std::uint64_t(g.numEdges()));
    fp.mix(std::uint64_t(g.numInvariants()));
    for (NodeId n = 0; n < g.numNodes(); ++n)
        fp.mix(std::uint64_t(int(g.node(n).op)));
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        fp.mix(std::uint64_t(edge.alive));
        if (!edge.alive)
            continue;
        fp.mix(std::uint64_t(edge.src));
        fp.mix(std::uint64_t(edge.dst));
        fp.mix(std::uint64_t(int(edge.kind)));
        fp.mix(std::uint64_t(edge.distance));
        fp.mix(std::uint64_t(edge.nonSpillable));
        fp.mix(std::uint64_t(edge.fusedDelay));
    }
    const std::uint64_t value = fp.value() ? fp.value() : 1;
    g.core_->cachedFp.store(value, std::memory_order_relaxed);
    return value;
}

std::uint64_t
machineFingerprint(const Machine &m)
{
    // The machine layer owns its content hash; memo keys reuse it
    // unchanged.
    return machineContentFingerprint(m);
}

bool
graphsFingerprintEquivalent(const Ddg &a, const Ddg &b)
{
    if (a.sharesStorageWith(b))
        return true;
    if (a.name() != b.name() || a.numNodes() != b.numNodes() ||
        a.numEdges() != b.numEdges() ||
        a.numInvariants() != b.numInvariants())
        return false;
    for (NodeId n = 0; n < a.numNodes(); ++n) {
        if (a.node(n).op != b.node(n).op)
            return false;
    }
    for (EdgeId e = 0; e < a.numEdges(); ++e) {
        const Edge &ea = a.edge(e);
        const Edge &eb = b.edge(e);
        if (ea.alive != eb.alive)
            return false;
        if (!ea.alive)
            continue;
        if (ea.src != eb.src || ea.dst != eb.dst || ea.kind != eb.kind ||
            ea.distance != eb.distance ||
            ea.nonSpillable != eb.nonSpillable ||
            ea.fusedDelay != eb.fusedDelay)
            return false;
    }
    return true;
}

bool
machinesFingerprintEquivalent(const Machine &a, const Machine &b)
{
    return a == b;
}

} // namespace swp
