#include "verify/legality.hh"

#include <algorithm>

#include "codegen/kernel.hh"
#include "support/strutil.hh"

namespace swp
{

namespace
{

/** Mathematical floored modulus, derived here rather than borrowed from
    the schedule helpers: the verifier trusts nothing it checks. */
int
wrapMod(int a, int m)
{
    const int r = a % m;
    return r < 0 ? r + m : r;
}

long
wrapModLong(long a, long m)
{
    const long r = a % m;
    return r < 0 ? r + m : r;
}

int
wrapDiv(int a, int m)
{
    return (a - wrapMod(a, m)) / m;
}

void
addViolation(VerifyReport &report, ViolationKind kind, NodeId node,
             EdgeId edge, std::string message)
{
    Violation v;
    v.kind = kind;
    v.node = node;
    v.edge = edge;
    v.message = std::move(message);
    report.violations.push_back(std::move(v));
}

/**
 * Structural sanity of a schedule against its graph. Returns false when
 * the shape is too broken for the constraint layers to index safely.
 */
bool
checkShape(const Ddg &g, const Schedule &s, VerifyReport &report)
{
    if (g.numNodes() == 0) {
        addViolation(report, ViolationKind::Structure, invalidNode, -1,
                     "graph has no nodes");
        return false;
    }
    if (s.numNodes() != g.numNodes()) {
        addViolation(
            report, ViolationKind::Structure, invalidNode, -1,
            strprintf("schedule covers %d nodes but the graph has %d",
                      s.numNodes(), g.numNodes()));
        return false;
    }
    if (s.ii() < 1) {
        addViolation(report, ViolationKind::Structure, invalidNode, -1,
                     strprintf("II=%d is not positive", s.ii()));
        return false;
    }
    bool complete = true;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        if (!s.scheduled(n)) {
            addViolation(
                report, ViolationKind::Structure, n, -1,
                strprintf("node %s (n%d) is unscheduled",
                          g.node(n).name.c_str(), n));
            complete = false;
        }
    }
    return complete;
}

/**
 * One loop-variant live range, recomputed here from the graph and
 * schedule alone — never taken from the allocator's own analysis.
 */
struct LiveRange
{
    NodeId producer = invalidNode;
    long start = 0;
    long end = 0;  ///< start of the producer to the last read (+II*dist).

    long length() const { return end - start; }
};

std::vector<LiveRange>
recomputeLiveRanges(const Ddg &g, const Schedule &s)
{
    const long ii = s.ii();
    std::vector<LiveRange> ranges;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        if (!producesValue(g.node(n).op))
            continue;
        bool used = false;
        long end = 0;
        for (EdgeId e : g.outEdges(n)) {
            const Edge &edge = g.edge(e);
            if (!edge.alive || edge.kind != DepKind::RegFlow)
                continue;
            const long read = long(s.time(edge.dst)) +
                              ii * long(edge.distance);
            end = used ? std::max(end, read) : read;
            used = true;
        }
        if (!used)
            continue;
        LiveRange lr;
        lr.producer = n;
        lr.start = s.time(n);
        lr.end = std::max(end, lr.start);
        ranges.push_back(lr);
    }
    return ranges;
}

/** Max values simultaneously live in the steady-state kernel. */
int
recomputeMaxLive(const std::vector<LiveRange> &ranges, int ii)
{
    std::vector<int> pressure(std::size_t(ii), 0);
    for (const LiveRange &lr : ranges) {
        const long len = lr.length();
        const int full = int(len / ii);
        const int rem = int(len % ii);
        for (int r = 0; r < ii; ++r)
            pressure[std::size_t(r)] += full;
        const int startRow = int(wrapModLong(lr.start, ii));
        for (int k = 0; k < rem; ++k)
            pressure[std::size_t((startRow + k) % ii)] += 1;
    }
    int maxLive = 0;
    for (int p : pressure)
        maxLive = std::max(maxLive, p);
    return maxLive;
}

/** True when circular arcs [a, a+la) and [b, b+lb) intersect mod circ. */
bool
circularOverlap(long a, long la, long b, long lb, long circ)
{
    if (la <= 0 || lb <= 0)
        return false;
    return wrapModLong(b - a, circ) < la || wrapModLong(a - b, circ) < lb;
}

} // namespace

const char *
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::Structure: return "structure";
      case ViolationKind::Dependence: return "dependence";
      case ViolationKind::FusedOffset: return "fused-offset";
      case ViolationKind::Resource: return "resource";
      case ViolationKind::Register: return "register";
      case ViolationKind::Kernel: return "kernel";
    }
    return "unknown";
}

int
VerifyReport::count(ViolationKind kind) const
{
    int n = 0;
    for (const Violation &v : violations)
        n += v.kind == kind;
    return n;
}

std::string
VerifyReport::describe() const
{
    std::string text;
    for (const Violation &v : violations) {
        text += strprintf("[%s] ", violationKindName(v.kind));
        text += v.message;
        text += '\n';
    }
    return text;
}

VerifyReport
verifySchedule(const Ddg &g, const Machine &m, const Schedule &s)
{
    VerifyReport report;
    if (!checkShape(g, s, report))
        return report;
    const int ii = s.ii();

    // Layer 1: dependence legality. Every live edge, including the ones
    // spill insertion added, must satisfy the modulo constraint
    // t(dst) >= t(src) + latency(src) - distance * II; fused edges must
    // sit at their exact stagger offset.
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        const int lat = m.latency(g.node(edge.src).op);
        const long earliest =
            long(s.time(edge.src)) + lat - long(ii) * edge.distance;
        if (s.time(edge.dst) < earliest) {
            addViolation(
                report, ViolationKind::Dependence, edge.dst, e,
                strprintf("edge e%d %s(n%d)->%s(n%d) dist=%d lat=%d: "
                          "t(dst)=%d < t(src)+lat-dist*II=%ld",
                          e, g.node(edge.src).name.c_str(), edge.src,
                          g.node(edge.dst).name.c_str(), edge.dst,
                          edge.distance, lat, s.time(edge.dst),
                          earliest));
        }
        if (edge.nonSpillable) {
            const int delay = edge.fusedDelay > 0 ? edge.fusedDelay : lat;
            if (s.time(edge.dst) != s.time(edge.src) + delay) {
                addViolation(
                    report, ViolationKind::FusedOffset, edge.dst, e,
                    strprintf("fused edge e%d %s(n%d)->%s(n%d): "
                              "t(dst)=%d != t(src)+delay=%d",
                              e, g.node(edge.src).name.c_str(), edge.src,
                              g.node(edge.dst).name.c_str(), edge.dst,
                              s.time(edge.dst),
                              s.time(edge.src) + delay));
            }
        }
    }

    // Layer 2: resource legality. Rebuild a naive occupancy table from
    // the op -> unit assignments: one occupant per (class, unit,
    // cycle mod II) slot, counting every row a non-pipelined op blocks.
    // The machine's described classes size the table directly (a
    // universal machine is simply a single class).
    const int classes = m.numClasses();
    std::vector<std::vector<NodeId>> table;
    table.resize(std::size_t(classes));
    for (int c = 0; c < classes; ++c) {
        table[std::size_t(c)].assign(
            std::size_t(m.unitsInClass(c)) * std::size_t(ii), invalidNode);
    }
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        const Opcode op = g.node(n).op;
        const int cls = m.classOf(op);
        const int units = m.unitsInClass(cls);
        const int u = s.unit(n);
        if (u < 0 || u >= units) {
            addViolation(
                report, ViolationKind::Resource, n, -1,
                strprintf("node %s (n%d) assigned unit %d outside the "
                          "%d %s units",
                          g.node(n).name.c_str(), n, u, units,
                          m.className(cls).c_str()));
            continue;
        }
        const int occ = m.occupancy(op);
        if (occ > ii) {
            addViolation(
                report, ViolationKind::Resource, n, -1,
                strprintf("node %s (n%d) occupies a %s unit for %d "
                          "cycles > II=%d",
                          g.node(n).name.c_str(), n, m.className(cls).c_str(),
                          occ, ii));
            continue;
        }
        for (int c = 0; c < occ; ++c) {
            const int row = wrapMod(s.time(n) + c, ii);
            NodeId &slot = table[std::size_t(cls)][
                std::size_t(u) * std::size_t(ii) + std::size_t(row)];
            if (slot != invalidNode) {
                addViolation(
                    report, ViolationKind::Resource, n, -1,
                    strprintf("slot (%s, unit %d, row %d) claimed by "
                              "both %s (n%d) and %s (n%d)",
                              m.className(cls).c_str(), u, row,
                              g.node(slot).name.c_str(), slot,
                              g.node(n).name.c_str(), n));
            } else {
                slot = n;
            }
        }
    }
    return report;
}

VerifyReport
verifyAllocation(const Ddg &g, const Schedule &s,
                 const AllocationOutcome &alloc)
{
    VerifyReport report;
    if (!checkShape(g, s, report))
        return report;
    const long ii = s.ii();

    const std::vector<LiveRange> ranges = recomputeLiveRanges(g, s);
    const int maxLive = recomputeMaxLive(ranges, int(ii));
    if (alloc.maxLive != maxLive) {
        addViolation(
            report, ViolationKind::Register, invalidNode, -1,
            strprintf("reported MaxLive %d != recomputed %d",
                      alloc.maxLive, maxLive));
    }

    int liveInvariants = 0;
    for (InvId i = 0; i < g.numInvariants(); ++i)
        liveInvariants += !g.invariant(i).spilled;
    if (alloc.invariants != liveInvariants) {
        addViolation(
            report, ViolationKind::Register, invalidNode, -1,
            strprintf("reported %d invariant registers but the graph "
                      "has %d live invariants",
                      alloc.invariants, liveInvariants));
    }
    if (alloc.regsRequired != alloc.rotating + alloc.invariants) {
        addViolation(
            report, ViolationKind::Register, invalidNode, -1,
            strprintf("regsRequired %d != rotating %d + invariants %d",
                      alloc.regsRequired, alloc.rotating,
                      alloc.invariants));
    }

    bool anyLong = false;
    for (const LiveRange &lr : ranges)
        anyLong |= lr.length() > 0;

    if (!alloc.rotAlloc.ok) {
        // The allocation never completed (over-budget result kept for
        // reporting). Claiming a fit without an allocation is the one
        // thing still checkable.
        if (alloc.fits && anyLong) {
            addViolation(
                report, ViolationKind::Register, invalidNode, -1,
                "result claims to fit its budget but carries no "
                "completed rotating allocation");
        }
        return report;
    }

    const int regs = alloc.rotAlloc.registers;
    if (regs != alloc.rotating) {
        addViolation(
            report, ViolationKind::Register, invalidNode, -1,
            strprintf("allocation uses %d rotating registers but the "
                      "outcome reports %d",
                      regs, alloc.rotating));
    }
    if (anyLong && regs < maxLive) {
        addViolation(
            report, ViolationKind::Register, invalidNode, -1,
            strprintf("%d rotating registers cannot hold %d "
                      "simultaneously live values",
                      regs, maxLive));
        return report;
    }
    if (!anyLong)
        return report;

    // Value v at offset o occupies the circular arc
    // [(start - o*II) mod R*II, +length) of the rotating file (instance
    // i sits in physical register (o + i) mod R during
    // [start + i*II, end + i*II)); two values are in one register at
    // one time exactly when their arcs intersect.
    const long circ = long(regs) * ii;
    struct PlacedArc
    {
        const LiveRange *range;
        long pos;
    };
    std::vector<PlacedArc> placed;
    for (const LiveRange &lr : ranges) {
        if (lr.length() <= 0)
            continue;
        const int off = alloc.rotAlloc.offset[std::size_t(lr.producer)];
        if (off < 0 || off >= regs) {
            addViolation(
                report, ViolationKind::Register, lr.producer, -1,
                strprintf("live value %s (n%d) has register offset %d "
                          "outside the %d-register file",
                          g.node(lr.producer).name.c_str(), lr.producer,
                          off, regs));
            continue;
        }
        if (lr.length() > circ) {
            addViolation(
                report, ViolationKind::Register, lr.producer, -1,
                strprintf("value %s (n%d) lives %ld cycles, longer "
                          "than the whole %ld-cycle file",
                          g.node(lr.producer).name.c_str(), lr.producer,
                          lr.length(), circ));
            continue;
        }
        placed.push_back(
            {&lr, wrapModLong(lr.start - long(off) * ii, circ)});
    }
    for (std::size_t i = 0; i < placed.size(); ++i) {
        for (std::size_t j = i + 1; j < placed.size(); ++j) {
            const PlacedArc &a = placed[i];
            const PlacedArc &b = placed[j];
            if (circularOverlap(a.pos, a.range->length(), b.pos,
                                b.range->length(), circ)) {
                addViolation(
                    report, ViolationKind::Register, a.range->producer,
                    -1,
                    strprintf(
                        "values %s (n%d, [%ld,%ld)) and %s (n%d, "
                        "[%ld,%ld)) share a rotating register",
                        g.node(a.range->producer).name.c_str(),
                        a.range->producer, a.range->start, a.range->end,
                        g.node(b.range->producer).name.c_str(),
                        b.range->producer, b.range->start,
                        b.range->end));
            }
        }
    }
    return report;
}

VerifyReport
verifyMveAllocation(const Ddg &g, const Schedule &s,
                    const MveAllocResult &mve)
{
    VerifyReport report;
    if (!checkShape(g, s, report))
        return report;
    const long ii = s.ii();
    const int unroll = mve.unroll;
    if (unroll < 1) {
        addViolation(report, ViolationKind::Register, invalidNode, -1,
                     strprintf("MVE unroll factor %d < 1", unroll));
        return report;
    }
    const long circ = long(unroll) * ii;

    // Rebuild each register name's arc set on the unrolled time circle:
    // value v with period p assigns instance j to name j mod p, so name
    // b of v owns the arcs started at start + j*II for j == b (mod p).
    struct NameUse
    {
        NodeId value;
        int name;
        int reg;
        std::vector<long> starts;
        long len;
    };
    std::vector<NameUse> names;
    for (const LiveRange &lr : recomputeLiveRanges(g, s)) {
        if (lr.length() <= 0)
            continue;
        const NodeId n = lr.producer;
        const int need = int((lr.length() + ii - 1) / ii);
        if (need > unroll) {
            addViolation(
                report, ViolationKind::Register, n, -1,
                strprintf("value %s (n%d) needs %d concurrent "
                          "instances but the kernel is unrolled %d "
                          "times",
                          g.node(n).name.c_str(), n, need, unroll));
            continue;
        }
        const int p = mve.period[std::size_t(n)];
        if (p < need || p > unroll || unroll % p != 0) {
            addViolation(
                report, ViolationKind::Register, n, -1,
                strprintf("value %s (n%d) has name period %d; need a "
                          "divisor of unroll %d covering %d instances",
                          g.node(n).name.c_str(), n, p, unroll, need));
            continue;
        }
        for (int b = 0; b < p; ++b) {
            const int reg = std::size_t(n) < mve.nameRegs.size() &&
                                    b < int(mve.nameRegs[std::size_t(n)]
                                                .size())
                                ? mve.nameRegs[std::size_t(n)][
                                      std::size_t(b)]
                                : -1;
            if (reg < 0 || reg >= mve.registers) {
                addViolation(
                    report, ViolationKind::Register, n, -1,
                    strprintf("name %d of value %s (n%d) mapped to "
                              "register %d outside the %d allocated",
                              b, g.node(n).name.c_str(), n, reg,
                              mve.registers));
                continue;
            }
            NameUse use;
            use.value = n;
            use.name = b;
            use.reg = reg;
            use.len = lr.length();
            for (int j = b; j < unroll; j += p)
                use.starts.push_back(
                    wrapModLong(lr.start + long(j) * ii, circ));
            names.push_back(std::move(use));
        }
    }

    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = i + 1; j < names.size(); ++j) {
            const NameUse &a = names[i];
            const NameUse &b = names[j];
            if (a.reg != b.reg)
                continue;
            bool clash = false;
            for (long qa : a.starts) {
                for (long qb : b.starts) {
                    clash |= circularOverlap(qa, a.len, qb, b.len, circ);
                }
            }
            if (clash) {
                addViolation(
                    report, ViolationKind::Register, a.value, -1,
                    strprintf("MVE names n%d#%d and n%d#%d overlap in "
                              "register %d",
                              a.value, a.name, b.value, b.name, a.reg));
            }
        }
    }
    return report;
}

VerifyReport
verifyKernel(const Ddg &g, const Schedule &s)
{
    VerifyReport report;
    if (!checkShape(g, s, report))
        return report;
    return verifyKernelLayout(g, s, buildKernel(g, s));
}

VerifyReport
verifyKernelLayout(const Ddg &g, const Schedule &s,
                   const KernelCode &kernel)
{
    VerifyReport report;
    if (!checkShape(g, s, report))
        return report;
    const int ii = s.ii();

    if (kernel.ii != ii) {
        addViolation(report, ViolationKind::Kernel, invalidNode, -1,
                     strprintf("kernel II %d != schedule II %d",
                               kernel.ii, ii));
        return report;
    }
    if (int(kernel.rows.size()) != ii) {
        addViolation(
            report, ViolationKind::Kernel, invalidNode, -1,
            strprintf("kernel has %d rows, II is %d",
                      int(kernel.rows.size()), ii));
        return report;
    }

    std::vector<bool> seen(std::size_t(g.numNodes()), false);
    for (int row = 0; row < ii; ++row) {
        for (const KernelSlot &slot : kernel.rows[std::size_t(row)]) {
            if (slot.node < 0 || slot.node >= g.numNodes()) {
                addViolation(
                    report, ViolationKind::Kernel, slot.node, -1,
                    strprintf("kernel row %d names node n%d outside "
                              "the graph",
                              row, slot.node));
                continue;
            }
            if (seen[std::size_t(slot.node)]) {
                addViolation(
                    report, ViolationKind::Kernel, slot.node, -1,
                    strprintf("node %s (n%d) appears twice in the "
                              "kernel",
                              g.node(slot.node).name.c_str(),
                              slot.node));
                continue;
            }
            seen[std::size_t(slot.node)] = true;
            // The fold is row = t mod II, stage = floor(t / II), so
            // stage * II + row must reproduce the issue cycle exactly.
            const int t = slot.stage * ii + row;
            if (t != s.time(slot.node)) {
                addViolation(
                    report, ViolationKind::Kernel, slot.node, -1,
                    strprintf("kernel slot (row %d, stage %d) of %s "
                              "(n%d) unfolds to cycle %d, scheduled "
                              "at %d",
                              row, slot.stage,
                              g.node(slot.node).name.c_str(), slot.node,
                              t, s.time(slot.node)));
            }
        }
    }
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        if (!seen[std::size_t(n)]) {
            addViolation(
                report, ViolationKind::Kernel, n, -1,
                strprintf("node %s (n%d) missing from the kernel",
                          g.node(n).name.c_str(), n));
        }
    }

    int minStage = INT32_MAX, maxStage = INT32_MIN;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        const int stage = wrapDiv(s.time(n), ii);
        minStage = std::min(minStage, stage);
        maxStage = std::max(maxStage, stage);
    }
    if (kernel.stageCount != maxStage - minStage + 1) {
        addViolation(
            report, ViolationKind::Kernel, invalidNode, -1,
            strprintf("kernel reports %d stages; the schedule spans %d",
                      kernel.stageCount, maxStage - minStage + 1));
    }
    return report;
}

VerifyReport
verifyResult(const Ddg &input, const Machine &m,
             const PipelineResult &result)
{
    VerifyReport report;
    const Ddg &g = result.graph();

    // Structural anchor against the untransformed loop: spilling may
    // append spill nodes and kill edges but never rewrites or removes
    // the original operations.
    if (result.ownsGraph()) {
        if (g.numNodes() < input.numNodes()) {
            addViolation(
                report, ViolationKind::Structure, invalidNode, -1,
                strprintf("transformed graph has %d nodes, fewer than "
                          "the %d-node input",
                          g.numNodes(), input.numNodes()));
            return report;
        }
        const int checkable = std::min(g.numNodes(), input.numNodes());
        for (NodeId n = 0; n < checkable; ++n) {
            if (g.node(n).op != input.node(n).op ||
                g.node(n).origin != NodeOrigin::Original) {
                addViolation(
                    report, ViolationKind::Structure, n, -1,
                    strprintf("original node n%d was rewritten by the "
                              "spill transformation",
                              n));
            }
        }
        for (NodeId n = input.numNodes(); n < g.numNodes(); ++n) {
            if (g.node(n).origin == NodeOrigin::Original) {
                addViolation(
                    report, ViolationKind::Structure, n, -1,
                    strprintf("appended node n%d claims to be an "
                              "original operation",
                              n));
            }
        }
    } else if (&g != &input) {
        addViolation(report, ViolationKind::Structure, invalidNode, -1,
                     "result is bound to a different input graph than "
                     "the one it was asked to schedule");
        return report;
    }
    if (!report.ok())
        return report;

    VerifyReport sched = verifySchedule(g, m, result.sched);
    const bool shapeOk = sched.count(ViolationKind::Structure) == 0;
    report.violations.insert(
        report.violations.end(),
        std::make_move_iterator(sched.violations.begin()),
        std::make_move_iterator(sched.violations.end()));
    if (!shapeOk)
        return report;

    VerifyReport alloc = verifyAllocation(g, result.sched, result.alloc);
    report.violations.insert(
        report.violations.end(),
        std::make_move_iterator(alloc.violations.begin()),
        std::make_move_iterator(alloc.violations.end()));

    VerifyReport kernel = verifyKernel(g, result.sched);
    report.violations.insert(
        report.violations.end(),
        std::make_move_iterator(kernel.violations.begin()),
        std::make_move_iterator(kernel.violations.end()));
    return report;
}

} // namespace swp
