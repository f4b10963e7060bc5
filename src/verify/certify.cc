#include "verify/certify.hh"

#include <algorithm>

#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

const char *
certKindName(CertKind kind)
{
    switch (kind) {
      case CertKind::Recurrence: return "recurrence";
      case CertKind::Resource: return "resource";
      case CertKind::RegisterFloor: return "register-floor";
      case CertKind::Consistency: return "consistency";
    }
    SWP_PANIC("unknown certificate kind ", int(kind));
}

std::string
CertReport::describe() const
{
    std::string out;
    for (const CertDiag &d : diags) {
        out += strprintf("[%s] ", certKindName(d.kind));
        out += d.message;
        out += '\n';
    }
    return out;
}

namespace
{

/** ceil(a / b) for a >= 0, b >= 1. */
long
ceilDiv(long a, long b)
{
    SWP_ASSERT(a >= 0 && b >= 1, "ceilDiv(", a, ", ", b, ")");
    return (a + b - 1) / b;
}

void
addDiag(CertReport &report, CertKind kind, std::string message)
{
    report.diags.push_back({kind, std::move(message)});
}

/** A live dependence edge, flattened for the Bellman–Ford passes. */
struct LiveEdge
{
    EdgeId id = -1;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    long latency = 0;
    long distance = 0;
};

std::vector<LiveEdge>
gatherLiveEdges(const Ddg &g, const Machine &m)
{
    std::vector<LiveEdge> edges;
    edges.reserve(std::size_t(g.numEdges()));
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &ed = g.edge(e);
        if (!ed.alive)
            continue;
        edges.push_back({e, ed.src, ed.dst,
                         long(m.latency(g.node(ed.src).op)),
                         long(ed.distance)});
    }
    return edges;
}

/**
 * Longest-path Bellman–Ford over edge weights latency - ii * distance,
 * every node a source (dist 0). Returns true iff a positive cycle
 * exists — i.e. some dependence recurrence cannot fit in `ii` cycles
 * per iteration. `parent` records the last improving in-edge per node
 * and `relaxed` collects the nodes still improving in the final pass
 * (the positive-cycle extraction seeds); either may be null.
 */
bool
hasPositiveCycle(const std::vector<LiveEdge> &edges, int numNodes,
                 long ii, int passes, std::vector<EdgeId> *parent,
                 std::vector<NodeId> *relaxed)
{
    std::vector<long> dist(std::size_t(numNodes), 0);
    if (parent)
        parent->assign(std::size_t(numNodes), -1);
    if (relaxed)
        relaxed->clear();
    for (int pass = 0; pass < passes; ++pass) {
        bool changed = false;
        const bool last = pass == passes - 1;
        for (const LiveEdge &e : edges) {
            const long w = e.latency - ii * e.distance;
            if (dist[std::size_t(e.src)] + w > dist[std::size_t(e.dst)]) {
                dist[std::size_t(e.dst)] = dist[std::size_t(e.src)] + w;
                if (parent)
                    (*parent)[std::size_t(e.dst)] = e.id;
                if (last && relaxed)
                    relaxed->push_back(e.dst);
                changed = true;
            }
        }
        if (!changed)
            return false;
    }
    // Still relaxing after `passes` >= numNodes rounds: simple paths
    // have at most numNodes - 1 edges, so a longer improving walk
    // must revisit a node through a positive cycle.
    return true;
}

/**
 * Extract a closed walk of live edges that is a positive cycle at the
 * given ii, by following the Bellman–Ford parent pointers back from a
 * node that was still relaxing in the final pass. The caller verifies
 * the walk's ratio; this only returns structurally closed walks.
 */
std::vector<EdgeId>
extractCycle(const Ddg &g, const std::vector<EdgeId> &parent,
             NodeId seed, int numNodes)
{
    // Walk back numNodes steps to guarantee landing inside a cycle of
    // the parent graph (a shorter chain ending at a parentless node
    // cannot have been relaxed in pass numNodes).
    NodeId x = seed;
    for (int i = 0; i < numNodes; ++i) {
        const EdgeId pe = parent[std::size_t(x)];
        if (pe < 0)
            return {};
        x = g.edge(pe).src;
    }
    // Keep walking backward until a node repeats; the segment between
    // the repeat's two visits is the cycle. walk[i] is the parent edge
    // of the i-th visited node (its dst), so the segment is in
    // backward order and gets reversed into src -> dst walk order.
    std::vector<EdgeId> walk;
    std::vector<int> visitedAt(std::size_t(numNodes), -1);
    NodeId y = x;
    while (visitedAt[std::size_t(y)] < 0) {
        visitedAt[std::size_t(y)] = int(walk.size());
        const EdgeId pe = parent[std::size_t(y)];
        if (pe < 0)
            return {};
        walk.push_back(pe);
        y = g.edge(pe).src;
    }
    std::vector<EdgeId> cycle(
        walk.begin() + visitedAt[std::size_t(y)], walk.end());
    std::reverse(cycle.begin(), cycle.end());
    return cycle;
}

/** Sum of latencies/distances along a walk of edge ids. */
void
walkSums(const Ddg &g, const Machine &m, const std::vector<EdgeId> &walk,
         long &latencySum, long &distanceSum)
{
    latencySum = 0;
    distanceSum = 0;
    for (const EdgeId e : walk) {
        latencySum += m.latency(g.node(g.edge(e).src).op);
        distanceSum += g.edge(e).distance;
    }
}

/** True if the walk is closed, fully live, and in-range. */
bool
walkClosed(const Ddg &g, const std::vector<EdgeId> &walk)
{
    if (walk.empty())
        return false;
    for (std::size_t i = 0; i < walk.size(); ++i) {
        const EdgeId e = walk[i];
        if (e < 0 || e >= g.numEdges() || !g.edge(e).alive)
            return false;
        const EdgeId next = walk[(i + 1) % walk.size()];
        if (next < 0 || next >= g.numEdges())
            return false;
        if (g.edge(e).dst != g.edge(next).src)
            return false;
    }
    return true;
}

CycleCertificate
certifyRecurrences(const Ddg &g, const Machine &m)
{
    CycleCertificate cert;
    const std::vector<LiveEdge> edges = gatherLiveEdges(g, m);
    const int n = g.numNodes();
    if (n == 0 || edges.empty())
        return cert;

    long latTotal = 0;
    for (NodeId v = 0; v < n; ++v)
        latTotal += m.latency(g.node(v).op);

    // Smallest ii with no positive cycle, by bisection. A simple cycle
    // sums at most every node's latency over distance >= 1, so its
    // ratio — and therefore the recurrence bound — is at most latTotal.
    if (!hasPositiveCycle(edges, n, 1, n, nullptr, nullptr))
        return cert;  // Feasible at II = 1: no recurrence constraint.
    long lo = 1;        // Known positive (infeasible).
    long hi = latTotal; // Known feasible.
    SWP_ASSERT(!hasPositiveCycle(edges, n, hi, n, nullptr, nullptr),
               "recurrence bound above the latency total in '", g.name(),
               "'");
    while (hi - lo > 1) {
        const long mid = lo + (hi - lo) / 2;
        if (hasPositiveCycle(edges, n, mid, n, nullptr, nullptr))
            lo = mid;
        else
            hi = mid;
    }
    cert.bound = int(hi);

    // Extract an explicit critical cycle at the last infeasible ii:
    // any positive cycle there has latencySum > lo * distanceSum, so
    // ceil(latencySum / distanceSum) >= lo + 1 == bound. The extracted
    // walk is verified before acceptance; if a parent chain turns out
    // degenerate (it terminates at an unparented node), rerunning with
    // more passes tightens the parent graph until one verifies.
    for (int passes = n; passes <= 8 * n; passes *= 2) {
        std::vector<EdgeId> parent;
        std::vector<NodeId> relaxed;
        const bool positive =
            hasPositiveCycle(edges, n, lo, passes, &parent, &relaxed);
        SWP_ASSERT(positive, "positive cycle vanished at ii ", lo,
                   " in '", g.name(), "'");
        for (const NodeId seed : relaxed) {
            const std::vector<EdgeId> cycle =
                extractCycle(g, parent, seed, n);
            if (!walkClosed(g, cycle))
                continue;
            long latSum = 0;
            long distSum = 0;
            walkSums(g, m, cycle, latSum, distSum);
            if (distSum <= 0 || ceilDiv(latSum, distSum) < cert.bound)
                continue;
            cert.edges = cycle;
            cert.latencySum = latSum;
            cert.distanceSum = distSum;
            return cert;
        }
    }
    SWP_PANIC("no critical cycle extractable at recurrence bound ",
              cert.bound, " in '", g.name(), "'");
}

/** Tallies of the machine's described classes, ascending class index. */
std::vector<ResourceTally>
recountTallies(const Ddg &g, const Machine &m)
{
    std::vector<ResourceTally> tallies;
    for (int c = 0; c < m.numClasses(); ++c) {
        ResourceTally t;
        t.fuClass = c;
        t.units = m.unitsInClass(c);
        for (NodeId v = 0; v < g.numNodes(); ++v) {
            if (m.classOf(g.node(v).op) != c)
                continue;
            ++t.ops;
            t.occupancy += m.occupancy(g.node(v).op);
        }
        if (t.ops == 0)
            continue;
        SWP_ASSERT(t.units >= 1, "ops of class ", m.className(c),
                   " on a machine with no such unit in '", g.name(), "'");
        t.bound = int(ceilDiv(t.occupancy, t.units));
        tallies.push_back(t);
    }
    return tallies;
}

/** Largest single-op occupancy and its (first) witness node. */
void
recountMaxOccupancy(const Ddg &g, const Machine &m, int &occ, NodeId &node)
{
    occ = 0;
    node = invalidNode;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        const int o = m.occupancy(g.node(v).op);
        if (o > occ) {
            occ = o;
            node = v;
        }
    }
}

ResourceCertificate
certifyResources(const Ddg &g, const Machine &m)
{
    ResourceCertificate cert;
    cert.tallies = recountTallies(g, m);
    recountMaxOccupancy(g, m, cert.maxOccupancy, cert.maxOccupancyNode);
    cert.bound = std::max(1, cert.maxOccupancy);
    for (const ResourceTally &t : cert.tallies)
        cert.bound = std::max(cert.bound, t.bound);
    return cert;
}

/** Expected register terms: every value with a live flow use floors
    its lifetime at the producer's latency. Ascending by value id. */
std::vector<RegisterTerm>
recountRegisterTerms(const Ddg &g, const Machine &m)
{
    std::vector<RegisterTerm> terms;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        if (!producesValue(g.node(v).op) || g.numValueUses(v) == 0)
            continue;
        terms.push_back({v, m.latency(g.node(v).op)});
    }
    return terms;
}

RegisterCertificate
certifyRegisters(const Ddg &g, const Machine &m, int ii)
{
    SWP_ASSERT(ii >= 1, "register floor needs ii >= 1, got ", ii);
    RegisterCertificate cert;
    cert.ii = ii;
    cert.terms = recountRegisterTerms(g, m);
    for (const RegisterTerm &t : cert.terms)
        cert.lifetimeSum += t.minLifetime;
    cert.invariants = g.numLiveInvariants();
    cert.bound = cert.invariants + int(ceilDiv(cert.lifetimeSum, ii));
    return cert;
}

void
checkCycleCertificate(const Ddg &g, const Machine &m,
                      const CycleCertificate &cert, CertReport &report)
{
    if (cert.bound < 1) {
        addDiag(report, CertKind::Recurrence,
                strprintf("recurrence bound %d below the trivial II >= 1",
                          cert.bound));
        return;
    }
    if (cert.edges.empty()) {
        if (cert.bound > 1) {
            addDiag(report, CertKind::Recurrence,
                    strprintf("recurrence bound %d claimed without a "
                              "witness cycle",
                              cert.bound));
        }
        return;
    }
    for (std::size_t i = 0; i < cert.edges.size(); ++i) {
        const EdgeId e = cert.edges[i];
        if (e < 0 || e >= g.numEdges()) {
            addDiag(report, CertKind::Recurrence,
                    strprintf("cycle edge %zu (id %d) outside the graph",
                              i, e));
            return;
        }
        if (!g.edge(e).alive) {
            addDiag(report, CertKind::Recurrence,
                    strprintf("cycle edge %zu (id %d, %d -> %d) is dead",
                              i, e, g.edge(e).src, g.edge(e).dst));
            return;
        }
        const EdgeId next = cert.edges[(i + 1) % cert.edges.size()];
        if (next < 0 || next >= g.numEdges())
            continue;  // Reported by its own iteration.
        if (g.edge(e).dst != g.edge(next).src) {
            addDiag(report, CertKind::Recurrence,
                    strprintf("cycle broken between edge %zu (id %d, "
                              "%d -> %d) and edge %zu (id %d, %d -> %d)",
                              i, e, g.edge(e).src, g.edge(e).dst,
                              (i + 1) % cert.edges.size(), next,
                              g.edge(next).src, g.edge(next).dst));
            return;
        }
    }
    long latSum = 0;
    long distSum = 0;
    walkSums(g, m, cert.edges, latSum, distSum);
    if (latSum != cert.latencySum || distSum != cert.distanceSum) {
        addDiag(report, CertKind::Recurrence,
                strprintf("cycle tallies claim latency %ld / distance "
                          "%ld, the walk sums to %ld / %ld",
                          cert.latencySum, cert.distanceSum, latSum,
                          distSum));
        return;
    }
    if (distSum <= 0) {
        addDiag(report, CertKind::Recurrence,
                strprintf("cycle has distance sum %ld; a legal loop has "
                          "no zero-distance cycle",
                          distSum));
        return;
    }
    if (ceilDiv(latSum, distSum) < cert.bound) {
        addDiag(report, CertKind::Recurrence,
                strprintf("cycle proves II >= %ld, certificate claims "
                          "II >= %d",
                          ceilDiv(latSum, distSum), cert.bound));
    }
}

void
checkResourceCertificate(const Ddg &g, const Machine &m,
                         const ResourceCertificate &cert,
                         CertReport &report)
{
    const std::vector<ResourceTally> expect = recountTallies(g, m);
    if (cert.tallies.size() != expect.size()) {
        addDiag(report, CertKind::Resource,
                strprintf("certificate has %zu class tallies, the "
                          "graph/machine have %zu non-empty classes",
                          cert.tallies.size(), expect.size()));
        return;
    }
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const ResourceTally &got = cert.tallies[i];
        const ResourceTally &want = expect[i];
        if (got.fuClass != want.fuClass || got.ops != want.ops ||
            got.occupancy != want.occupancy ||
            got.units != want.units || got.bound != want.bound) {
            const char *name = want.fuClass < 0
                                   ? "universal"
                                   : m.className(want.fuClass).c_str();
            addDiag(report, CertKind::Resource,
                    strprintf("class %s tally mismatch: certificate "
                              "has ops %d occ %ld units %d bound %d, "
                              "recount gives ops %d occ %ld units %d "
                              "bound %d",
                              name, got.ops, got.occupancy, got.units,
                              got.bound, want.ops, want.occupancy,
                              want.units, want.bound));
            return;
        }
    }
    int maxOcc = 0;
    NodeId maxNode = invalidNode;
    recountMaxOccupancy(g, m, maxOcc, maxNode);
    if (cert.maxOccupancy != maxOcc) {
        addDiag(report, CertKind::Resource,
                strprintf("max single-op occupancy claimed %d, recount "
                          "gives %d",
                          cert.maxOccupancy, maxOcc));
        return;
    }
    if (maxOcc > 0) {
        const NodeId w = cert.maxOccupancyNode;
        if (w < 0 || w >= g.numNodes() ||
            m.occupancy(g.node(w).op) != maxOcc) {
            addDiag(report, CertKind::Resource,
                    strprintf("occupancy witness node %d does not "
                              "occupy its unit for %d cycles",
                              w, maxOcc));
            return;
        }
    }
    int bound = std::max(1, maxOcc);
    for (const ResourceTally &t : expect)
        bound = std::max(bound, t.bound);
    if (cert.bound != bound) {
        addDiag(report, CertKind::Resource,
                strprintf("resource bound claimed %d, tallies prove %d",
                          cert.bound, bound));
    }
}

void
checkRegisterCertificate(const Ddg &g, const Machine &m,
                         const RegisterCertificate &cert,
                         CertReport &report)
{
    if (cert.ii < 1) {
        addDiag(report, CertKind::RegisterFloor,
                strprintf("register floor at ii %d (needs ii >= 1)",
                          cert.ii));
        return;
    }
    const std::vector<RegisterTerm> expect = recountRegisterTerms(g, m);
    if (cert.terms.size() != expect.size()) {
        addDiag(report, CertKind::RegisterFloor,
                strprintf("certificate has %zu lifetime terms, the "
                          "graph has %zu live values",
                          cert.terms.size(), expect.size()));
        return;
    }
    long sum = 0;
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const RegisterTerm &got = cert.terms[i];
        const RegisterTerm &want = expect[i];
        if (got.value != want.value || got.minLifetime != want.minLifetime) {
            addDiag(report, CertKind::RegisterFloor,
                    strprintf("lifetime term %zu claims value %d floor "
                              "%d; the flow constraints prove value %d "
                              "floor %d",
                              i, got.value, got.minLifetime, want.value,
                              want.minLifetime));
            return;
        }
        sum += want.minLifetime;
    }
    if (cert.lifetimeSum != sum) {
        addDiag(report, CertKind::RegisterFloor,
                strprintf("lifetime sum claimed %ld, terms sum to %ld",
                          cert.lifetimeSum, sum));
        return;
    }
    const int invariants = g.numLiveInvariants();
    if (cert.invariants != invariants) {
        addDiag(report, CertKind::RegisterFloor,
                strprintf("invariant count claimed %d, the graph has %d "
                          "live invariants",
                          cert.invariants, invariants));
        return;
    }
    const int bound = invariants + int(ceilDiv(sum, cert.ii));
    if (cert.bound != bound) {
        addDiag(report, CertKind::RegisterFloor,
                strprintf("register floor claimed %d at ii %d, the "
                          "terms prove %d",
                          cert.bound, cert.ii, bound));
    }
}

} // namespace

Certificate
certifyLoop(const Ddg &g, const Machine &m, int ii)
{
    Certificate cert;
    cert.cycle = certifyRecurrences(g, m);
    cert.resource = certifyResources(g, m);
    cert.registers = certifyRegisters(g, m, ii);
    cert.iiBound = std::max(cert.cycle.bound, cert.resource.bound);
    return cert;
}

CertReport
checkCertificate(const Ddg &g, const Machine &m, const Certificate &cert)
{
    CertReport report;
    checkCycleCertificate(g, m, cert.cycle, report);
    checkResourceCertificate(g, m, cert.resource, report);
    checkRegisterCertificate(g, m, cert.registers, report);
    if (cert.iiBound != std::max(cert.cycle.bound, cert.resource.bound)) {
        addDiag(report, CertKind::Consistency,
                strprintf("II bound claimed %d, the certificates prove "
                          "max(%d, %d)",
                          cert.iiBound, cert.cycle.bound,
                          cert.resource.bound));
    }
    return report;
}

CertReport
checkCertificateAgainstResult(const Certificate &cert,
                              const PipelineResult &result)
{
    CertReport report;
    const int ii = result.sched.ii();
    if (ii < cert.iiBound) {
        addDiag(report, CertKind::Consistency,
                strprintf("achieved II %d beats the certified lower "
                          "bound %d — schedule or bound machinery is "
                          "broken",
                          ii, cert.iiBound));
    }
    if (cert.registers.ii != ii) {
        addDiag(report, CertKind::Consistency,
                strprintf("register floor proven at ii %d, the result "
                          "runs at II %d",
                          cert.registers.ii, ii));
    } else if (result.alloc.regsRequired < cert.registers.bound) {
        addDiag(report, CertKind::Consistency,
                strprintf("achieved allocation uses %d registers, "
                          "below the certified floor %d at II %d",
                          result.alloc.regsRequired,
                          cert.registers.bound, ii));
    }
    return report;
}

CertSummary
summarizeCertificate(const Certificate &cert, const PipelineResult &result)
{
    CertSummary s;
    s.loop = result.graph().name();
    s.achievedIi = result.sched.ii();
    s.achievedRegs = result.alloc.regsRequired;
    s.recBound = cert.cycle.bound;
    s.resBound = cert.resource.bound;
    s.iiBound = cert.iiBound;
    s.regBound = cert.registers.bound;
    s.cycleEdges = int(cert.cycle.edges.size());
    return s;
}

std::string
certSummaryJson(int job, const CertSummary &s)
{
    return strprintf(
        "{\"job\": %d, \"loop\": %s, \"ii\": %d, \"regs\": %d, "
        "\"rec_bound\": %d, \"res_bound\": %d, \"ii_bound\": %d, "
        "\"reg_floor\": %d, \"cycle_edges\": %d, \"gap\": %d, "
        "\"reg_gap\": %d}",
        job, jsonQuote(s.loop).c_str(), s.achievedIi, s.achievedRegs,
        s.recBound, s.resBound, s.iiBound, s.regBound, s.cycleEdges,
        s.gap(), s.regGap());
}

GapReport
summarizeGaps(const std::vector<CertSummary> &summaries)
{
    GapReport r;
    for (const CertSummary &s : summaries) {
        ++r.jobs;
        const int gap = s.gap();
        if (gap == 0)
            ++r.optimal;
        else if (gap == 1)
            ++r.gapOne;
        else
            ++r.unproven;
        r.gapSum += gap;
        if (s.regGap() == 0)
            ++r.regExact;
    }
    return r;
}

std::string
describeGapReport(const GapReport &r)
{
    const double mean = r.jobs ? double(r.gapSum) / double(r.jobs) : 0.0;
    return strprintf(
        "certify: %d jobs; II proven optimal on %d, within 1 on %d, "
        "unproven on %d (mean gap %.3f); register floor met exactly on "
        "%d",
        r.jobs, r.optimal, r.gapOne, r.unproven, mean, r.regExact);
}

} // namespace swp
