#include "sim/vliw.hh"

#include <algorithm>

#include "liferange/lifetimes.hh"
#include "sim/dataflow.hh"
#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

namespace
{

/** A pending register write. */
struct Write
{
    long cycle;
    int reg;
    std::uint64_t value;
    std::string owner;
};

/** Physical register index of instance i of a value. */
int
physReg(int offset, long instance, int num_regs)
{
    const long r = (offset + instance) % num_regs;
    return int(r < 0 ? r + num_regs : r);
}

/** Find the single register-flow producer of a store (its datum). */
NodeId
storeDataProducer(const Ddg &g, NodeId store)
{
    NodeId producer = invalidNode;
    int count = 0;
    for (EdgeId e : g.inEdges(store)) {
        if (g.edge(e).kind == DepKind::RegFlow) {
            producer = g.edge(e).src;
            ++count;
        }
    }
    return count == 1 ? producer : invalidNode;
}

} // namespace

SimResult
simulatePipelined(const Ddg &g, const Machine &m, const Schedule &sched,
                  const RotAllocResult &alloc, long iterations)
{
    SimResult result;
    if (!sched.complete() || sched.numNodes() != g.numNodes()) {
        result.error = "incomplete schedule";
        return result;
    }

    const int ii = sched.ii();
    const long n = iterations;
    const int numRegs = std::max(alloc.registers, 1);

    DataflowOracle oracle(g);
    const LifetimeInfo lifetimes = analyzeLifetimes(g, sched);

    // Register file plus an owner tag for diagnostics.
    std::vector<std::uint64_t> regs(std::size_t(numRegs), 0);
    std::vector<std::string> owner(std::size_t(numRegs), "(uninit)");

    std::vector<Write> writes;  // Min-heap by cycle.
    auto writeCmp = [](const Write &a, const Write &b) {
        return a.cycle > b.cycle;
    };

    // Preload live-in instances into the registers their allocation
    // arcs reserve: instance j < 0 of value v is alive while
    // end_v + j*II > 0. The writes are *timed* at the instance's
    // nominal production cycle (start + j*II + latency): eager writes
    // at cycle 0 would let a short early arc clobber a longer later
    // arc sharing the register, which the steady-state allocation
    // legitimately allows. Lazy timing models a prologue that
    // materializes each live-in exactly when its arc begins.
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        const Lifetime &lt = lifetimes.of(v);
        if (!lt.live)
            continue;
        const int off = alloc.offset[std::size_t(v)];
        if (off < 0)
            continue;
        const long lat = m.latency(g.node(v).op);
        // Inclusive boundary: an instance whose last read sits exactly
        // at cycle 0 is still consumed by the first iteration.
        for (long j = -1; lt.end + j * ii >= 0; --j) {
            const int pr = physReg(off, j, numRegs);
            writes.push_back({lt.start + j * ii + lat, pr,
                              oracle.value(v, j),
                              strprintf("%s@%ld (live-in)",
                                        g.node(v).name.c_str(), j)});
        }
    }
    std::make_heap(writes.begin(), writes.end(), writeCmp);

    // Event-driven execution: issues in cycle order, with result writes
    // applied at the start of their cycle (before any same-cycle read).
    struct Issue
    {
        long cycle;
        NodeId node;
        long iter;
        bool operator<(const Issue &o) const { return cycle < o.cycle; }
    };
    std::vector<Issue> issues;
    issues.reserve(std::size_t(n) * std::size_t(g.numNodes()));
    for (long i = 0; i < n; ++i) {
        for (NodeId v = 0; v < g.numNodes(); ++v)
            issues.push_back({sched.time(v) + i * ii, v, i});
    }
    std::stable_sort(issues.begin(), issues.end());

    // Spill memory: per (store node, iteration) slots.
    std::map<std::pair<NodeId, long>, std::uint64_t> slots;

    long lastCycle = 0;
    for (const Issue &issue : issues) {
        // Retire pending writes due at or before this cycle.
        while (!writes.empty() && writes.front().cycle <= issue.cycle) {
            std::pop_heap(writes.begin(), writes.end(), writeCmp);
            Write w = std::move(writes.back());
            writes.pop_back();
            regs[std::size_t(w.reg)] = w.value;
            owner[std::size_t(w.reg)] = std::move(w.owner);
        }

        const NodeId v = issue.node;
        const Node &node = g.node(v);
        const long i = issue.iter;

        // Read register operands.
        std::vector<std::uint64_t> inputs;
        for (EdgeId e : g.inEdges(v)) {
            const Edge &edge = g.edge(e);
            if (edge.kind != DepKind::RegFlow)
                continue;
            const NodeId p = edge.src;
            const long inst = i - edge.distance;
            const int off = alloc.offset[std::size_t(p)];
            if (off < 0) {
                result.error = strprintf(
                    "value %s read by %s but never allocated",
                    g.node(p).name.c_str(), node.name.c_str());
                return result;
            }
            const int pr = physReg(off, inst, numRegs);
            const std::uint64_t got = regs[std::size_t(pr)];
            if (got != oracle.value(p, inst)) {
                result.error = strprintf(
                    "iter %ld cycle %ld: %s read r%d expecting "
                    "%s@%ld but found %s (clobbered)",
                    i, issue.cycle, node.name.c_str(), pr,
                    g.node(p).name.c_str(), inst,
                    owner[std::size_t(pr)].c_str());
                return result;
            }
            inputs.push_back(got);
        }
        for (InvId inv : node.invariantUses)
            inputs.push_back(invariantValue(inv));
        std::sort(inputs.begin(), inputs.end());

        // Execute.
        std::uint64_t out = 0;
        bool hasOut = producesValue(node.op);
        switch (node.spillRef.kind) {
          case SpillRef::Kind::StoreSlot: {
            const NodeId store = NodeId(node.spillRef.value);
            const long inst = i - node.spillRef.shift;
            const auto it = slots.find({store, inst});
            if (it != slots.end()) {
                out = it->second;
            } else if (inst < 0) {
                // Pre-loop memory: what the store's producer held.
                const NodeId producer = storeDataProducer(g, store);
                SWP_ASSERT(producer != invalidNode,
                           "spill store without a single datum producer");
                out = oracle.value(producer, inst);
            } else {
                result.error = strprintf(
                    "iter %ld: %s reads slot (%s, %ld) before it is "
                    "written — spill scheduling bug",
                    i, node.name.c_str(), g.node(store).name.c_str(),
                    inst);
                return result;
            }
            break;
          }
          case SpillRef::Kind::ReloadStream:
            out = loadStreamValue(NodeId(node.spillRef.value),
                                  i - node.spillRef.shift);
            break;
          case SpillRef::Kind::InvariantMem:
            out = invariantValue(InvId(node.spillRef.value));
            break;
          case SpillRef::Kind::None:
            if (node.op == Opcode::Load) {
                out = loadStreamValue(v, i);
            } else if (node.op == Opcode::Store) {
                // The datum is computed from the registers actually
                // read, so a clobber propagates into the store stream.
                const std::uint64_t datum =
                    combineOperands(node.op, v, inputs);
                slots[{v, i}] = datum;
                if (node.origin == NodeOrigin::Original)
                    result.storeStreams[v].push_back(datum);
                hasOut = false;
            } else if (node.op == Opcode::Nop) {
                hasOut = false;
            } else {
                out = combineOperands(node.op, v, inputs);
            }
            break;
        }

        if (node.op == Opcode::Load || node.op == Opcode::Store)
            ++result.memoryOps;

        // Write back when the result is ready, unless the value is dead.
        if (hasOut && g.numValueUses(v) > 0) {
            const int off = alloc.offset[std::size_t(v)];
            if (off < 0) {
                result.error = strprintf("live value %s unallocated",
                                         node.name.c_str());
                return result;
            }
            const int pr = physReg(off, i, numRegs);
            writes.push_back({issue.cycle + m.latency(node.op), pr, out,
                              strprintf("%s@%ld", node.name.c_str(), i)});
            std::push_heap(writes.begin(), writes.end(), writeCmp);
        }

        lastCycle = std::max(lastCycle,
                             issue.cycle + m.latency(node.op));
    }

    result.cycles = lastCycle + 1;
    result.ok = true;
    return result;
}

bool
equivalentToSequential(const Ddg &original, const Ddg &transformed,
                       const Machine &m, const Schedule &sched,
                       const RotAllocResult &alloc, long iterations,
                       std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    const SimResult sim =
        simulatePipelined(transformed, m, sched, alloc, iterations);
    if (!sim.ok)
        return fail("simulation failed: " + sim.error);

    const auto ref = referenceStoreStreams(original, iterations);
    if (ref.size() != sim.storeStreams.size()) {
        return fail(strprintf(
            "store count mismatch: reference %zu vs pipelined %zu",
            ref.size(), sim.storeStreams.size()));
    }
    for (const auto &[store, stream] : ref) {
        const auto it = sim.storeStreams.find(store);
        if (it == sim.storeStreams.end()) {
            return fail(strprintf("store %s missing from simulation",
                                  original.node(store).name.c_str()));
        }
        if (it->second.size() != stream.size()) {
            return fail(strprintf(
                "store %s executed %zu times, expected %zu",
                original.node(store).name.c_str(), it->second.size(),
                stream.size()));
        }
        for (std::size_t i = 0; i < stream.size(); ++i) {
            if (stream[i] != it->second[i]) {
                return fail(strprintf(
                    "store %s iteration %zu: datum mismatch",
                    original.node(store).name.c_str(), i));
            }
        }
    }
    return true;
}

} // namespace swp
