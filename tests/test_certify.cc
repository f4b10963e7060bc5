/**
 * @file
 * Tests for the optimality-certificate subsystem (src/verify/certify).
 *
 * Four halves:
 *  - positive: real pipeline results — the paper example, pinned suite
 *    loops (spilled and unspilled, all strategies), universal machines
 *    — must produce certificates that pass the independent checker and
 *    never contradict the achieved II/register count;
 *  - differential: the certificate bounds, derived with code sharing
 *    nothing with src/sched, must equal the scheduler's own
 *    recMii/resMii/mii on every pinned loop x machine pair;
 *  - negative (mutation): perturb exactly one site of a valid bundle —
 *    a cycle edge, a tally, a lifetime floor, the claimed bound — and
 *    the checker must reject the mutant with a diagnostic of the
 *    matching CertKind;
 *  - integration: SuiteRunner fills the per-job summary vector
 *    identically at any thread count, and the JSON rendering is
 *    byte-stable.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/builder.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/mii.hh"
#include "testkit/mutate.hh"
#include "verify/certify.hh"
#include "workload/paper_loops.hh"
#include "workload/suitegen.hh"

#include "driver/suite_runner.hh"

namespace swp
{
namespace
{

PipelinerOptions
spillOptions(int registers)
{
    PipelinerOptions opts;
    opts.registers = registers;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    return opts;
}

/** Certify one finished result against its own (possibly transformed)
    graph and cross-check it; returns the bundle for further poking. */
Certificate
certifyAndExpectClean(const Machine &m, const PipelineResult &r,
                      const std::string &label)
{
    const Ddg &g = r.graph();
    const Certificate cert = certifyLoop(g, m, r.sched.ii());
    const CertReport check = checkCertificate(g, m, cert);
    EXPECT_TRUE(check.ok()) << label << ":\n" << check.describe();
    const CertReport contra = checkCertificateAgainstResult(cert, r);
    EXPECT_TRUE(contra.ok()) << label << ":\n" << contra.describe();
    return cert;
}

/** First pinned suite loop whose recurrences actually bind (recMii >=
    2) on p2l4 — the critical-cycle donor. The paper example is acyclic
    at the recurrence level, so it cannot exercise cycle extraction. */
SuiteLoop
recurrenceLoop()
{
    const SuiteParams params;
    const Machine m = Machine::p2l4();
    for (int i = 0;; ++i) {
        SuiteLoop loop = generateSuiteLoop(params, i);
        if (recMii(loop.graph, m) >= 2)
            return loop;
    }
}

TEST(Certify, PaperExampleCertifiesClean)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::p2l4();
    const PipelineResult r = pipelineLoop(g, m, Strategy::Ideal, {});
    const Certificate cert = certifyAndExpectClean(m, r, "paper example");
    EXPECT_EQ(cert.iiBound,
              std::max(cert.cycle.bound, cert.resource.bound));
}

TEST(Certify, CriticalCycleIsAClosedLiveWalk)
{
    const SuiteLoop loop = recurrenceLoop();
    const Machine m = Machine::p2l4();
    const PipelineResult r = pipelineLoop(loop.graph, m, Strategy::Ideal, {});
    const Certificate cert =
        certifyAndExpectClean(m, r, "recurrence donor");

    EXPECT_GE(cert.cycle.bound, 2);
    ASSERT_FALSE(cert.cycle.edges.empty());
    const Ddg &g = r.graph();
    for (std::size_t i = 0; i < cert.cycle.edges.size(); ++i) {
        const Edge &cur = g.edge(cert.cycle.edges[i]);
        const Edge &next =
            g.edge(cert.cycle.edges[(i + 1) % cert.cycle.edges.size()]);
        EXPECT_TRUE(cur.alive);
        EXPECT_EQ(cur.dst, next.src) << "walk broken at step " << i;
    }
    EXPECT_GE(cert.cycle.distanceSum, 1);
}

TEST(Certify, PinnedSuiteSweepCertifiesClean)
{
    const SuiteParams params;  // Pinned default seed.
    const Machine m = Machine::p2l4();
    for (int i = 0; i < 60; ++i) {
        const SuiteLoop loop = generateSuiteLoop(params, i);
        for (const Strategy strategy :
             {Strategy::Spill, Strategy::IncreaseII,
              Strategy::BestOfAll}) {
            const PipelineResult r =
                pipelineLoop(loop.graph, m, strategy, spillOptions(16));
            certifyAndExpectClean(
                m, r,
                "loop " + std::to_string(i) + " strategy " +
                    std::to_string(int(strategy)));
        }
    }
}

TEST(Certify, SpilledResultsCertifyAgainstTransformedGraph)
{
    // A tight budget forces spilling: the certificate is generated and
    // checked against the spill-transformed graph, whose extra nodes
    // and fused edges must not break any bound.
    const SuiteParams params;
    const Machine m = Machine::p1l4();
    int spilled = 0;
    for (int i = 0; i < 40; ++i) {
        const SuiteLoop loop = generateSuiteLoop(params, i);
        const PipelineResult r =
            pipelineLoop(loop.graph, m, Strategy::Spill, spillOptions(8));
        spilled += r.spilledLifetimes > 0;
        certifyAndExpectClean(m, r, "loop " + std::to_string(i));
    }
    EXPECT_GT(spilled, 0) << "budget 8 on p1l4 spilled nothing; the "
                             "spill path went untested";
}

TEST(Certify, UniversalMachineUsesOnePool)
{
    // Universal machines seat every op on one unit pool: the resource
    // certificate collapses to one tally for the single described class.
    const SuiteParams params;
    const Machine m = Machine::universal("u4", 4, 2);
    for (int i = 0; i < 20; ++i) {
        const SuiteLoop loop = generateSuiteLoop(params, i);
        const PipelineResult r = pipelineLoop(loop.graph, m, Strategy::Ideal, {});
        const Certificate cert =
            certifyAndExpectClean(m, r, "loop " + std::to_string(i));
        ASSERT_EQ(cert.resource.tallies.size(), 1u);
        EXPECT_EQ(cert.resource.tallies[0].fuClass, 0);
        EXPECT_EQ(cert.resource.tallies[0].units, 4);
    }
}

// ---------------------------------------------------------------------------
// Differential: the independent bounds equal the scheduler's own.
// ---------------------------------------------------------------------------

TEST(Certify, BoundsMatchSchedulerMii)
{
    const SuiteParams params;
    const std::vector<Machine> machines = {
        Machine::p1l4(), Machine::p2l4(), Machine::p2l6(),
        Machine::universal("u4", 4, 2)};
    for (int i = 0; i < 60; ++i) {
        const SuiteLoop loop = generateSuiteLoop(params, i);
        for (const Machine &m : machines) {
            const int iiRef = mii(loop.graph, m);
            const Certificate cert = certifyLoop(loop.graph, m, iiRef);
            EXPECT_EQ(cert.cycle.bound, recMii(loop.graph, m))
                << "loop " << i << " machine " << m.name();
            EXPECT_EQ(cert.resource.bound, resMii(loop.graph, m))
                << "loop " << i << " machine " << m.name();
            EXPECT_EQ(cert.iiBound, iiRef)
                << "loop " << i << " machine " << m.name();
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation classes. Each must be caught with the matching kind.
// ---------------------------------------------------------------------------

/** Diagnostics of one kind in a report. */
long
countOf(const CertReport &report, CertKind kind)
{
    return std::count_if(report.diags.begin(), report.diags.end(),
                         [&](const CertDiag &d) { return d.kind == kind; });
}

/** A certified recurrence-bearing result, the mutation donor (its
    certificate populates all three sections, cycle included). */
struct Donor
{
    Ddg g;
    Machine m;
    PipelineResult result;
    Certificate cert;

    Donor()
        : g(recurrenceLoop().graph), m(Machine::p2l4()),
          result(pipelineLoop(g, m, Strategy::Ideal, {})),
          cert(certifyLoop(result.graph(), m, result.sched.ii()))
    {
    }
};

TEST(CertifyMutation, CorruptedCycleEdgeCaught)
{
    const Donor d;
    ASSERT_FALSE(d.cert.cycle.edges.empty());
    // Swap the first cycle edge for any other edge of the graph: the
    // walk stops being closed (or its tally stops matching).
    const EdgeId original = d.cert.cycle.edges[0];
    EdgeId replacement = -1;
    for (EdgeId e = 0; e < d.g.numEdges(); ++e)
        if (e != original) {
            replacement = e;
            break;
        }
    ASSERT_NE(replacement, -1);

    const Certificate mutant = withCycleEdge(d.cert, 0, replacement);
    const CertReport report = checkCertificate(d.g, d.m, mutant);
    EXPECT_FALSE(report.ok());
    EXPECT_GT(countOf(report, CertKind::Recurrence), 0)
        << report.describe();
}

TEST(CertifyMutation, InflatedTallyCaught)
{
    const Donor d;
    ASSERT_FALSE(d.cert.resource.tallies.empty());
    const long occ = d.cert.resource.tallies[0].occupancy;
    const Certificate mutant = withTallyOccupancy(d.cert, 0, occ + 1);
    const CertReport report = checkCertificate(d.g, d.m, mutant);
    EXPECT_FALSE(report.ok());
    EXPECT_GT(countOf(report, CertKind::Resource), 0) << report.describe();
}

TEST(CertifyMutation, InflatedLifetimeFloorCaught)
{
    const Donor d;
    ASSERT_FALSE(d.cert.registers.terms.empty());
    const int lt = d.cert.registers.terms[0].minLifetime;
    const Certificate mutant = withTermLifetime(d.cert, 0, lt + 1);
    const CertReport report = checkCertificate(d.g, d.m, mutant);
    EXPECT_FALSE(report.ok());
    EXPECT_GT(countOf(report, CertKind::RegisterFloor), 0)
        << report.describe();
}

TEST(CertifyMutation, RaisedRegisterBoundCaught)
{
    const Donor d;
    const Certificate mutant =
        withRegisterBound(d.cert, d.cert.registers.bound + 1);
    const CertReport report = checkCertificate(d.g, d.m, mutant);
    EXPECT_FALSE(report.ok());
    EXPECT_GT(countOf(report, CertKind::RegisterFloor), 0)
        << report.describe();
}

TEST(CertifyMutation, RaisedIiBoundCaught)
{
    const Donor d;
    const Certificate mutant = withIiBound(d.cert, d.cert.iiBound + 1);
    const CertReport report = checkCertificate(d.g, d.m, mutant);
    EXPECT_FALSE(report.ok());
    EXPECT_GT(countOf(report, CertKind::Consistency), 0)
        << report.describe();
}

TEST(CertifyMutation, ContradictionWithResultCaught)
{
    // A bound above the achieved II claims the schedule is impossible:
    // the result cross-check must flag the contradiction even though
    // checkCertificate cannot (it only sees the graph).
    const Donor d;
    const Certificate mutant =
        withIiBound(d.cert, d.result.sched.ii() + 1);
    const CertReport report =
        checkCertificateAgainstResult(mutant, d.result);
    EXPECT_FALSE(report.ok());
    EXPECT_GT(countOf(report, CertKind::Consistency), 0)
        << report.describe();
}

// ---------------------------------------------------------------------------
// SuiteRunner integration and reporting.
// ---------------------------------------------------------------------------

std::vector<SuiteLoop>
smallSuite(int n)
{
    const SuiteParams params;
    std::vector<SuiteLoop> suite;
    suite.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i)
        suite.push_back(generateSuiteLoop(params, i));
    return suite;
}

std::vector<BatchJob>
suiteJobs(int n)
{
    std::vector<BatchJob> jobs;
    for (int i = 0; i < n; ++i) {
        BatchJob job;
        job.loop = i;
        job.strategy = Strategy::BestOfAll;
        job.options = spillOptions(16);
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<std::string>
runCertified(int threads, int n)
{
    const std::vector<SuiteLoop> suite = smallSuite(n);
    const Machine m = Machine::p2l4();
    SuiteRunner runner(threads);
    RunOptions opts;
    std::vector<CertSummary> certs;
    opts.certificates = &certs;
    runner.run(suite, m, suiteJobs(n), opts);
    EXPECT_EQ(certs.size(), std::size_t(n));
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < certs.size(); ++i) {
        EXPECT_GT(certs[i].achievedIi, 0) << "job " << i << " not filled";
        lines.push_back(certSummaryJson(int(i), certs[i]));
    }
    return lines;
}

TEST(CertifySuiteRunner, SummariesIdenticalAcrossThreadCounts)
{
    const std::vector<std::string> one = runCertified(1, 24);
    const std::vector<std::string> four = runCertified(4, 24);
    EXPECT_EQ(one, four);
}

TEST(CertifyReport, GapAggregationCountsKinds)
{
    std::vector<CertSummary> summaries(4);
    // gap 0, regGap 0.
    summaries[0].achievedIi = summaries[0].iiBound = 3;
    summaries[0].achievedRegs = summaries[0].regBound = 7;
    // gap 1, regGap 1.
    summaries[1].achievedIi = 4;
    summaries[1].iiBound = 3;
    summaries[1].achievedRegs = 5;
    summaries[1].regBound = 4;
    // gap 2 (unproven), regGap 2.
    summaries[2].achievedIi = 5;
    summaries[2].iiBound = 3;
    summaries[2].achievedRegs = 6;
    summaries[2].regBound = 4;
    // gap 0, regGap != 0.
    summaries[3].achievedIi = summaries[3].iiBound = 2;
    summaries[3].achievedRegs = 9;
    summaries[3].regBound = 8;

    const GapReport r = summarizeGaps(summaries);
    EXPECT_EQ(r.jobs, 4);
    EXPECT_EQ(r.optimal, 2);
    EXPECT_EQ(r.gapOne, 1);
    EXPECT_EQ(r.unproven, 1);
    EXPECT_EQ(r.gapSum, 3);
    EXPECT_EQ(r.regExact, 1);
    EXPECT_FALSE(describeGapReport(r).empty());
}

TEST(CertifyReport, JsonRenderingIsByteStable)
{
    CertSummary s;
    s.loop = "loop0042";
    s.achievedIi = 7;
    s.achievedRegs = 19;
    s.recBound = 5;
    s.resBound = 7;
    s.iiBound = 7;
    s.regBound = 12;
    s.cycleEdges = 3;
    EXPECT_EQ(certSummaryJson(42, s),
              "{\"job\": 42, \"loop\": \"loop0042\", \"ii\": 7, "
              "\"regs\": 19, \"rec_bound\": 5, \"res_bound\": 7, "
              "\"ii_bound\": 7, \"reg_floor\": 12, \"cycle_edges\": 3, "
              "\"gap\": 0, \"reg_gap\": 7}");
}

} // namespace
} // namespace swp
