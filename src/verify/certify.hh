/**
 * @file
 * Optimality certificates: machine-checkable lower bounds on II and
 * register count.
 *
 * The legality verifier (verify/legality) proves a schedule satisfies
 * every constraint; it says nothing about whether the schedule is any
 * *good*. This subsystem closes that gap with certificates — small,
 * explicit witnesses that no legal schedule of the same loop on the
 * same machine can beat a bound — generated and checked by code that
 * shares nothing with src/sched (no Mrt, no SCC decomposition, no
 * RecMII search; its own Bellman–Ford, its own tallies, its own floor
 * arithmetic), so a bug in the optimized MII machinery cannot
 * hide inside the proof that vouches for it.
 *
 * Three certificate kinds:
 *
 *  1. Recurrence (critical cycle) — an explicit closed walk of live
 *     edges. Summing the dependence constraint t(dst) >= t(src) +
 *     latency(src) - distance * II around the walk cancels every t()
 *     and leaves II * sum(distance) >= sum(latency), so any legal
 *     schedule has II >= ceil(sum latency / sum distance). The checker
 *     re-walks the edges in the Ddg and redoes the division.
 *  2. Resource (pigeonhole) — per functional-unit class, the op
 *     occupancy tally and the machine's instance count: units * II
 *     issue slots per kernel window must seat sum(occupancy) ops, so
 *     II >= ceil(occupancy / units); and a single op occupying its
 *     unit for `occ` cycles forces II >= occ. The checker recounts
 *     both from the graph and the machine model.
 *  3. Register floor — at a fixed II, every value with a live use has
 *     lifetime >= latency(producer) (the flow-dependence constraint at
 *     any legal schedule), and the sum of lifetimes spread over II
 *     rows pigeonholes MaxLive >= ceil(sum / II); adding one static
 *     register per live loop invariant gives a register count no
 *     allocation at this II can beat.
 *
 * A Certificate bundles all three for one (loop, machine, II); the gap
 * report aggregates achieved-vs-certified distances across a suite.
 */

#ifndef SWP_VERIFY_CERTIFY_HH
#define SWP_VERIFY_CERTIFY_HH

#include <string>
#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "pipeliner/result.hh"

namespace swp
{

/** Which certificate a diagnostic belongs to. */
enum class CertKind
{
    Recurrence,    ///< Critical-cycle II bound broken or mis-tallied.
    Resource,      ///< Pigeonhole II bound broken or mis-tallied.
    RegisterFloor, ///< Register lower bound broken or mis-tallied.
    Consistency,   ///< Bundle incoherent or contradicts the result.
};

/** Printable certificate name ("recurrence", "resource", ...). */
const char *certKindName(CertKind kind);

/**
 * Recurrence certificate: a closed walk of live edges proving
 * II >= bound. `edges` is empty exactly when bound <= 1 (acyclic
 * loops place no recurrence constraint beyond II >= 1).
 */
struct CycleCertificate
{
    int bound = 1;
    std::vector<EdgeId> edges;  ///< In walk order; dst(i) == src(i+1).
    long latencySum = 0;        ///< sum latency(src(e)) over the walk.
    long distanceSum = 0;       ///< sum distance(e) over the walk.
};

/** One unit class's pigeonhole tally. */
struct ResourceTally
{
    int fuClass = -1;   ///< Machine class index (Machine::classOf).
    int ops = 0;        ///< Operations executing on this class.
    long occupancy = 0; ///< Sum of per-op unit occupancy.
    int units = 0;      ///< Machine instances of the class.
    int bound = 1;      ///< ceil(occupancy / units).
};

/** Resource certificate: II >= bound by counting issue slots. */
struct ResourceCertificate
{
    int bound = 1;  ///< max over tallies and maxOccupancy (>= 1).
    std::vector<ResourceTally> tallies;  ///< Non-empty classes, in
                                         ///< ascending class order.
    int maxOccupancy = 0;                ///< Largest single-op occupancy.
    NodeId maxOccupancyNode = invalidNode;  ///< Witness op (invalidNode
                                            ///< for an empty graph).
};

/** One value's lifetime floor: LT(value) >= minLifetime at any legal
    schedule (the producer's latency, forced by its live flow uses). */
struct RegisterTerm
{
    NodeId value = invalidNode;
    int minLifetime = 0;
};

/** Register certificate: no allocation at `ii` fits under `bound`. */
struct RegisterCertificate
{
    int ii = 0;          ///< The II the floor is proven at.
    int bound = 0;       ///< invariants + ceil(lifetimeSum / ii).
    int invariants = 0;  ///< Live loop invariants (one static reg each).
    long lifetimeSum = 0;
    std::vector<RegisterTerm> terms;  ///< Ascending by value id.
};

/** The full certificate bundle for one (loop, machine, II). */
struct Certificate
{
    int iiBound = 1;  ///< max(cycle.bound, resource.bound).
    CycleCertificate cycle;
    ResourceCertificate resource;
    RegisterCertificate registers;
};

/** One certificate-check diagnostic. */
struct CertDiag
{
    CertKind kind = CertKind::Consistency;
    std::string message;
};

/** Outcome of checking one certificate bundle. */
struct CertReport
{
    std::vector<CertDiag> diags;

    bool ok() const { return diags.empty(); }

    /** All diagnostics, one per line (empty string when ok). */
    std::string describe() const;
};

/**
 * Generate the certificate bundle for a loop on a machine, with the
 * register floor proven at the given (achieved) II. The graph should
 * be the one the schedule refers to — for spilled results, the
 * spill-transformed graph — so the bounds apply to the schedule that
 * was actually emitted. ii must be >= 1.
 */
Certificate certifyLoop(const Ddg &g, const Machine &m, int ii);

/**
 * Independently validate a certificate bundle against the graph and
 * machine: re-walk the cycle, recount the tallies, re-derive the
 * floor, and redo every ceiling division. Accepts exactly the bundles
 * certifyLoop emits; any corruption (a swapped cycle edge, an inflated
 * tally, a raised floor) is rejected with a diagnostic of the
 * matching kind.
 */
CertReport checkCertificate(const Ddg &g, const Machine &m,
                            const Certificate &cert);

/**
 * Check a certificate does not contradict an achieved result: the
 * result's II must be >= iiBound, the register floor must be proven at
 * the result's own II, and alloc.regsRequired must be >= the floor. A
 * contradiction means either the schedule is illegal or the bound
 * machinery is wrong — both fatal.
 */
CertReport checkCertificateAgainstResult(const Certificate &cert,
                                         const PipelineResult &result);

/** Compact per-job certificate outcome, for reports and JSON lines. */
struct CertSummary
{
    std::string loop;
    int achievedIi = 0;
    int achievedRegs = 0;
    int recBound = 0;
    int resBound = 0;
    int iiBound = 0;
    int regBound = 0;
    int cycleEdges = 0;  ///< Length of the critical cycle (0 = none).

    /** Achieved II minus certified lower bound (>= 0, or the result
        contradicts its certificate). */
    int gap() const { return achievedIi - iiBound; }

    /** Achieved registers minus certified floor. */
    int regGap() const { return achievedRegs - regBound; }
};

/** Summarize one checked certificate against its result. */
CertSummary summarizeCertificate(const Certificate &cert,
                                 const PipelineResult &result);

/**
 * Canonical one-line JSON rendering of one job's summary. Byte-stable
 * across thread counts (pure function of the job index and summary).
 */
std::string certSummaryJson(int job, const CertSummary &s);

/** Suite-wide optimality-gap aggregate. */
struct GapReport
{
    int jobs = 0;       ///< Summaries aggregated.
    int optimal = 0;    ///< gap == 0: II proven optimal.
    int gapOne = 0;     ///< gap == 1.
    int unproven = 0;   ///< gap >= 2.
    long gapSum = 0;    ///< Sum of II gaps.
    int regExact = 0;   ///< regGap == 0: register floor met exactly.
};

/** Aggregate the summaries. */
GapReport summarizeGaps(const std::vector<CertSummary> &summaries);

/** One-line human-readable gap report. */
std::string describeGapReport(const GapReport &r);

} // namespace swp

#endif // SWP_VERIFY_CERTIFY_HH
