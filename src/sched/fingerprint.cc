#include "sched/fingerprint.hh"

#include "support/diag.hh"

namespace swp
{

std::uint64_t
graphFingerprint(const Ddg &g)
{
    // One walk per graph content: every mutator clears the slot, so
    // the per-probe calls of an II search all hit here. Concurrent
    // computes for one shared graph store the same value; 0 doubles as
    // the "unset" sentinel (remapped below).
    const std::uint64_t cached = g.fp_.value.load(std::memory_order_relaxed);
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
    g.fp_.value.store(value, std::memory_order_relaxed);
    return value;
}

bool
graphsFingerprintEquivalent(const Ddg &a, const Ddg &b)
{
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

KeyWitness::KeyWitness(bool verify, const Ddg &g, const Machine &m)
{
    if (verify)
        inputs_ = std::make_shared<const Inputs>(Inputs{g, m});
}

void
KeyWitness::check(const char *memo, const Ddg &g, const Machine &m) const
{
    if (!inputs_)
        return;
    SWP_ASSERT(graphsFingerprintEquivalent(g, inputs_->graph), memo,
               " fingerprint collision: graph '", g.name(),
               "' hit an entry built from a different graph");
    SWP_ASSERT(m == inputs_->machine, memo,
               " fingerprint collision: machine '", m.name(),
               "' hit an entry built from a different machine");
}

} // namespace swp
