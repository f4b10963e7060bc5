/**
 * @file
 * The repository benchmark harness.
 *
 * Runs one named workload through the library's public API as a closed
 * loop from this one process, times it from outside the library, checks
 * every result after the timed region, and prints the metrics as one
 * JSON object on the last line of stdout. README.md beside this file
 * defines the workloads and every metric; run.py builds and invokes it.
 *
 *   swp_perfbench --workload best_r32|incii_r32|grid_t4
 *                 [--seed S] [--seconds T] [--trace 0|1]
 *                 [--loops N] [--threads N] [--trace-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with no instrumentation.
 * --trace 1 is the separate traced run: a timing scheduler decorator
 * goes in through EvalContext, allocations are replayed on the probed
 * schedules, spans are written as Chrome trace-event JSON to
 * DIR/trace-<workload>.json, and the per-layer metrics are printed
 * instead.
 *
 * Exit status: 0 when every result passed the checks, 1 when a job
 * failed or a check rejected a result, 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "codegen/kernel.hh"
#include "driver/suite_runner.hh"
#include "liferange/lifetimes.hh"
#include "machine/machdesc.hh"
#include "pipeliner/pipeliner.hh"
#include "regalloc/rotalloc.hh"
#include "sched/mii.hh"
#include "sched/sched_memo.hh"
#include "sched/scheduler.hh"
#include "sim/vliw.hh"
#include "verify/certify.hh"
#include "verify/legality.hh"
#include "workload/suitegen.hh"

namespace
{

using namespace swp;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Set-up is repeated at least this often per run; setup_s is the
    median. */
constexpr int kSetupReps = 21;

/** The timed region runs at least this many passes (for the median). */
constexpr int kMinPasses = 3;

/** Iterations each kernel is executed for against the dataflow
    reference (same as the machine-family sweep). */
constexpr long kSimIterations = 32;

/** The certificate census pinned for best_r32 on the default suite. */
constexpr int kPinnedOptimal = 1223;
constexpr int kPinnedGapOne = 16;
constexpr int kPinnedUnproven = 19;

/** One named workload. */
struct Workload
{
    const char *name;
    Strategy strategy;
    std::vector<int> budgets;
    bool threaded;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"best_r32", Strategy::BestOfAll, {32}, false},
        {"incii_r32", Strategy::IncreaseII, {32}, false},
        {"grid_t4", Strategy::BestOfAll, {12, 16, 24, 32, 48, 64}, true},
    };
    return all;
}

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = kDefaultSuiteSeed;
    double seconds = 10;
    bool trace = false;
    int loops = SuiteParams{}.numLoops;
    int threads = 4;
    std::string traceDir;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "swp_perfbench: " << msg
              << " (see the file header for usage)\n";
    std::exit(2);
}

long long
parseNumber(const char *flag, const char *text, long long lo, long long hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi)
        usage(std::string("bad ") + flag + " value " + text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing argument for " + flag);
        const char *text = argv[++i];
        if (flag == "--workload") {
            for (const Workload &w : workloads()) {
                if (w.name == std::string(text))
                    o.workload = &w;
            }
            if (!o.workload)
                usage(std::string("unknown workload ") + text);
        } else if (flag == "--seed") {
            // Decimal, or hexadecimal with a 0x prefix.
            char *end = nullptr;
            errno = 0;
            const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
            o.seed = std::strtoull(text, &end, hex ? 16 : 10);
            if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
                usage(std::string("bad --seed value ") + text);
        } else if (flag == "--seconds") {
            o.seconds = double(parseNumber("--seconds", text, 1, 3600));
        } else if (flag == "--trace") {
            o.trace = parseNumber("--trace", text, 0, 1) != 0;
        } else if (flag == "--loops") {
            o.loops = int(parseNumber("--loops", text, 1, 100000));
        } else if (flag == "--threads") {
            o.threads = int(parseNumber("--threads", text, 1, 256));
        } else if (flag == "--trace-dir") {
            o.traceDir = text;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!o.workload)
        usage("--workload is required");
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(q * double(v.size()) + 0.999999);
    rank = std::max<std::size_t>(1, std::min(rank, v.size()));
    return v[rank - 1];
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace events at the end.
// ---------------------------------------------------------------------------

class Tracer
{
  public:
    void setRecording(bool on) { recording_ = on; }

    /** The job the following spans belong to (-1: none). */
    void setJob(int job) { job_ = job; }
    int job() const { return job_; }

    void
    open(const char *name)
    {
        open_.push_back({name, Clock::now(), nextId_++});
    }

    /** Close the innermost span; returns its duration in seconds. */
    double
    close()
    {
        const Open o = open_.back();
        open_.pop_back();
        const Clock::time_point end = Clock::now();
        if (recording_) {
            spans_.push_back({o.name, micros(o.start), micros(end), o.id,
                              open_.empty() ? -1 : open_.back().id, job_});
        }
        return secondsBetween(o.start, end);
    }

    std::size_t spanCount() const { return spans_.size(); }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::out | std::ios::trunc);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        char buf[256];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\","
                          "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                          "\"dur\":%.3f,\"args\":{\"id\":%ld,\"parent\":%ld,"
                          "\"job\":%d}}",
                          i ? "," : "", s.name, s.start, s.end - s.start,
                          s.id, s.parent, s.job);
            out << buf;
        }
        out << "\n]}\n";
        if (!out)
            throw std::runtime_error("cannot write trace file " + path);
    }

  private:
    struct Open
    {
        const char *name;
        Clock::time_point start;
        long id;
    };
    struct Span
    {
        const char *name;
        double start, end;
        long id, parent;
        int job;
    };

    double
    micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    bool recording_ = false;
    int job_ = -1;
    long nextId_ = 0;
    Clock::time_point origin_ = Clock::now();
    std::vector<Open> open_;
    std::vector<Span> spans_;
};

/** A span around one scope (no-op without a tracer); adds its
    duration to *sum when given. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, double *sum = nullptr)
        : t_(t), sum_(sum)
    {
        if (t_)
            t_->open(name);
    }
    ~Scope()
    {
        if (t_) {
            const double d = t_->close();
            if (sum_)
                *sum_ += d;
        }
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    double *sum_;
};

/** Per-layer totals of the traced run, summed over its passes. */
struct Layers
{
    double miiS = 0;
    long miiCalls = 0;
    double probeS = 0;
    long probes = 0, probesOk = 0, imsProbes = 0;
    double lifeS = 0;
    long lifeCalls = 0;
    double allocS = 0;  ///< allocateLoop replays, lifetime analysis included.
    long allocCalls = 0, allocFits = 0;
    double pipelinerS = 0;
    long attempts = 0, fallbacks = 0, spillRounds = 0, spillLifetimes = 0;
    double verifyS = 0, certifyS = 0, codegenS = 0, simS = 0;
    double tracedWallS = 0, replayS = 0;
};

/** One successful probe, kept for the allocation replay. */
struct ProbedSchedule
{
    Ddg graph;  // Copy-on-write: O(1), unaffected by later spill rounds.
    Schedule sched;
    int job;
};

/**
 * Scheduler decorator of the traced run: times and counts every
 * scheduleAt probe of the wrapped core and keeps each schedule found.
 */
class TracingScheduler final : public ModuloScheduler
{
  public:
    TracingScheduler(ModuloScheduler &inner, bool ims, Tracer &tracer,
                     Layers &layers, std::vector<ProbedSchedule> &kept)
        : inner_(inner), ims_(ims), tracer_(tracer), layers_(layers),
          kept_(kept)
    {
    }

    std::string name() const override { return inner_.name(); }

    std::optional<Schedule>
    scheduleAt(const Ddg &g, const Machine &m, int ii) override
    {
        std::optional<Schedule> s;
        {
            Scope span(&tracer_, ims_ ? "sched.ims_probe" : "sched.probe",
                       &layers_.probeS);
            s = inner_.scheduleAt(g, m, ii);
        }
        ++layers_.probes;
        layers_.imsProbes += ims_;
        if (s) {
            ++layers_.probesOk;
            kept_.push_back({g, *s, tracer_.job()});
        }
        return s;
    }

  private:
    ModuloScheduler &inner_;
    bool ims_;
    Tracer &tracer_;
    Layers &layers_;
    std::vector<ProbedSchedule> &kept_;
};

// ---------------------------------------------------------------------------
// Set-up, passes, checks.
// ---------------------------------------------------------------------------

/**
 * The composition of the pinned suite. A suite's cost and its
 * trip-weighted quality sums are dominated by its few large loops, its
 * heavy loops (self-recurrent state: the only generated loops with a
 * self edge) and its long-running loops. A seed's suite is therefore
 * drawn to match the pinned suite stratum by stratum, a stratum being
 * (heavy, trip count above the class median, node count).
 */
class Strata
{
  public:
    using Key = std::tuple<bool, bool, int>;

    explicit Strata(int loops)
    {
        std::vector<SuiteLoop> pinned;
        for (int i = 0; i < loops; ++i)
            pinned.push_back(generateSuiteLoop(SuiteParams{}, i));
        for (const bool heavy : {false, true}) {
            std::vector<double> trips;
            for (const SuiteLoop &l : pinned) {
                if (isHeavy(l.graph) == heavy)
                    trips.push_back(double(l.iterations));
            }
            tripSplit_[heavy] = trips.empty() ? 0 : median(trips);
        }
        for (const SuiteLoop &l : pinned)
            ++quota_[key(l)];
    }

    Key
    key(const SuiteLoop &l) const
    {
        const bool heavy = isHeavy(l.graph);
        return {heavy, double(l.iterations) > tripSplit_[heavy],
                l.graph.numNodes()};
    }

    const std::map<Key, int> &quota() const { return quota_; }

  private:
    static bool
    isHeavy(const Ddg &g)
    {
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            if (g.edge(e).src == g.edge(e).dst)
                return true;
        }
        return false;
    }

    double tripSplit_[2] = {0, 0};
    std::map<Key, int> quota_;
};

/**
 * The suite of a seed, as generator indices: the loops in index order,
 * each taken while its stratum still has room, until every stratum
 * holds as many loops as in the pinned suite. On the pinned seed these
 * are exactly the pinned suite's indices.
 */
std::vector<int>
selectLoops(std::uint64_t seed, const Strata &strata)
{
    SuiteParams params;
    params.seed = seed;
    std::map<Strata::Key, int> room = strata.quota();
    long wanted = 0;
    for (const auto &kv : room)
        wanted += kv.second;
    std::vector<int> picked;
    for (int i = 0; long(picked.size()) < wanted; ++i) {
        if (i >= 1000 * wanted)
            throw std::runtime_error("seed cannot fill the suite's strata");
        const auto it = room.find(strata.key(generateSuiteLoop(params, i)));
        if (it != room.end() && it->second > 0) {
            --it->second;
            picked.push_back(i);
        }
    }
    return picked;
}

struct Setup
{
    Machine machine = Machine::p2l4();
    std::vector<SuiteLoop> suite;
    std::vector<BatchJob> jobs;
    std::unique_ptr<ModuloScheduler> hrms;
    std::unique_ptr<ModuloScheduler> ims;
};

/**
 * Set-up as a user pays it: resolve the machine, generate the suite's
 * loops, build the job list and the scheduler objects (serial) or a
 * runner (threaded). Repeated during the run; setup_s is the median.
 * Choosing the seed's loops is the benchmark's own work, done once.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(const Options &o)
        : o_(o), loops_(selectLoops(o.seed, Strata(o.loops)))
    {
    }

    Setup
    rep()
    {
        Setup s;
        const Clock::time_point t0 = Clock::now();
        s.machine = machineFromSpec("p2l4");
        SuiteParams params;
        params.seed = o_.seed;
        for (const int index : loops_)
            s.suite.push_back(generateSuiteLoop(params, index));
        const Clock::time_point t1 = Clock::now();
        for (std::size_t loop = 0; loop < s.suite.size(); ++loop) {
            for (const int budget : o_.workload->budgets) {
                BatchJob job;
                job.loop = int(loop);
                job.strategy = o_.workload->strategy;
                job.options.registers = budget;
                job.options.multiSelect = true;
                job.options.reuseLastIi = true;
                s.jobs.push_back(job);
            }
        }
        if (o_.workload->threaded) {
            // Each timed pass builds its own runner (fresh memos); this
            // is what that construction costs.
            SuiteRunner runner(o_.threads);
        } else {
            s.hrms = makeScheduler(SchedulerKind::Hrms);
            s.ims = makeScheduler(SchedulerKind::Ims);
        }
        total_.push_back(secondsBetween(t0, Clock::now()));
        gen_.push_back(secondsBetween(t0, t1));
        if (!s.hrms) {
            // The traced run's serial replay of the grid needs them too.
            s.hrms = makeScheduler(SchedulerKind::Hrms);
            s.ims = makeScheduler(SchedulerKind::Ims);
        }
        return s;
    }

    int reps() const { return int(total_.size()); }
    double setupSeconds() const { return median(total_); }
    double genSeconds() const { return median(gen_); }

  private:
    const Options &o_;
    std::vector<int> loops_;
    std::vector<double> total_, gen_;
};

struct Pass
{
    double seconds = 0;
    std::vector<double> jobSeconds;  ///< Serial passes only.
    std::vector<PipelineResult> results;
    std::vector<char> threw;
    std::vector<WorkerPerf> perf;  ///< Threaded passes only.
    SuiteRunner::MemoStats memo;   ///< Threaded passes only.
};

/**
 * Every job, in order, on this thread: mii (once per loop, as the
 * runner's bounds memo does) and pipelineLoop through the given
 * schedulers. With a tracer, spans and the per-layer totals are kept.
 */
Pass
serialPass(const Setup &s, const Workload &w, ModuloScheduler &hrms,
           ModuloScheduler &ims, ScheduleMemo *memo, Tracer *tr,
           Layers *layers)
{
    Pass p;
    const std::size_t n = s.jobs.size();
    p.results.resize(n);
    p.jobSeconds.resize(n);
    p.threw.assign(n, 0);
    std::vector<int> miiOf(s.suite.size(), -1);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        const BatchJob &job = s.jobs[i];
        const Ddg &g = s.suite[std::size_t(job.loop)].graph;
        if (tr)
            tr->setJob(int(i));
        const Clock::time_point t0 = Clock::now();
        try {
            Scope jobSpan(tr, "job");
            int &knownMii = miiOf[std::size_t(job.loop)];
            if (knownMii < 0) {
                Scope span(tr, "sched.mii", layers ? &layers->miiS : nullptr);
                knownMii = mii(g, s.machine);
                if (layers)
                    ++layers->miiCalls;
            }
            EvalContext ctx;
            ctx.scheduler = &hrms;
            ctx.imsFallback = &ims;
            ctx.knownMii = knownMii;
            ctx.memo = memo;
            Scope span(tr, "pipeliner",
                       layers ? &layers->pipelinerS : nullptr);
            p.results[i] =
                pipelineLoop(g, s.machine, w.strategy, job.options, &ctx);
        } catch (const std::exception &e) {
            p.threw[i] = 1;
            std::cerr << "job " << i << " (loop '" << g.name()
                      << "') threw: " << e.what() << "\n";
        }
        p.jobSeconds[i] = secondsBetween(t0, Clock::now());
    }
    p.seconds = secondsBetween(start, Clock::now());
    return p;
}

/** All jobs in one SuiteRunner::run on a fresh runner (fresh memos). */
Pass
threadedPass(const Setup &s, int threads)
{
    Pass p;
    SuiteRunner runner(threads);
    p.threw.assign(s.jobs.size(), 0);
    const Clock::time_point start = Clock::now();
    try {
        p.results = runner.run(s.suite, s.machine, s.jobs);
    } catch (const std::exception &e) {
        // run() rethrows the first failing job; no result is usable.
        std::cerr << "grid run threw: " << e.what() << "\n";
        p.results.assign(s.jobs.size(), PipelineResult{});
        p.threw.assign(s.jobs.size(), 1);
    }
    p.seconds = secondsBetween(start, Clock::now());
    p.perf = runner.workerPerf();
    p.memo = runner.memoStats();
    return p;
}

/** The deterministic quality of one pass: the paper's measures. */
struct Quality
{
    long long execCycles = 0;  ///< Sum of trip count x II.
    long long memOps = 0;      ///< Sum of trip count x memory ops/iter.
    long fit = 0;              ///< Results within the register budget.

    bool
    operator==(const Quality &o) const
    {
        return execCycles == o.execCycles && memOps == o.memOps &&
               fit == o.fit;
    }
};

Quality
quality(const Setup &s, const Pass &p)
{
    Quality q;
    for (std::size_t i = 0; i < p.results.size(); ++i) {
        if (p.threw[i])
            continue;
        const PipelineResult &r = p.results[i];
        const long long trips =
            s.suite[std::size_t(s.jobs[i].loop)].iterations;
        q.execCycles += trips * r.ii();
        q.memOps += trips * r.memOpsPerIteration();
        q.fit += r.success;
    }
    return q;
}

struct Gate
{
    long failed = 0;
    long simulated = 0;
    GapReport census;
};

/** splitmix64 finalizer: a well-mixed hash of one word. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The correctness gate, outside every timed region: legality verifier,
 * optimality certificate and its independent checker, and kernel
 * listing for every result; pipelined-vs-sequential execution of every
 * allocated kernel, except that on a multi-budget grid one budget per
 * loop, drawn from the seed, is executed.
 */
Gate
checkResults(const Options &o, const Setup &s, const Pass &p, Tracer *tr,
             Layers *layers)
{
    Gate gate;
    const std::size_t budgets = o.workload->budgets.size();
    std::vector<CertSummary> summaries(p.results.size());
    for (std::size_t i = 0; i < p.results.size(); ++i) {
        const Ddg &g = s.suite[std::size_t(s.jobs[i].loop)].graph;
        if (p.threw[i]) {
            ++gate.failed;
            continue;
        }
        if (tr)
            tr->setJob(int(i));
        const PipelineResult &r = p.results[i];
        std::string why;
        try {
            {
                Scope span(tr, "verify", layers ? &layers->verifyS : nullptr);
                const VerifyReport rep = verifyResult(g, s.machine, r);
                if (!rep.ok())
                    why = "illegal result: " + rep.describe();
            }
            if (why.empty()) {
                Scope span(tr, "certify",
                           layers ? &layers->certifyS : nullptr);
                const Certificate cert =
                    certifyLoop(r.graph(), s.machine, r.ii());
                const CertReport own =
                    checkCertificate(r.graph(), s.machine, cert);
                const CertReport contra =
                    checkCertificateAgainstResult(cert, r);
                if (!own.ok())
                    why = "certificate rejected: " + own.describe();
                else if (!contra.ok())
                    why = "certificate contradicts result: " +
                          contra.describe();
                else
                    summaries[i] = summarizeCertificate(cert, r);
            }
            if (why.empty()) {
                Scope span(tr, "codegen",
                           layers ? &layers->codegenS : nullptr);
                if (formatKernelListing(r.graph(), s.machine, r.sched,
                                        r.alloc.rotAlloc)
                        .empty())
                    why = "empty kernel listing";
            }
            const std::size_t loop = std::size_t(s.jobs[i].loop);
            const bool sampled =
                mix64(o.seed ^ mix64(loop)) % budgets == i % budgets;
            if (why.empty() && r.alloc.rotAlloc.ok && sampled) {
                Scope span(tr, "sim", layers ? &layers->simS : nullptr);
                ++gate.simulated;
                std::string diff;
                if (!equivalentToSequential(g, r.graph(), s.machine,
                                            r.sched, r.alloc.rotAlloc,
                                            kSimIterations, &diff))
                    why = "simulation mismatch: " + diff;
            }
        } catch (const std::exception &e) {
            why = std::string("check threw: ") + e.what();
        }
        if (!why.empty()) {
            ++gate.failed;
            std::cerr << "job " << i << " (loop '" << g.name()
                      << "') rejected: " << why << "\n";
        }
    }
    gate.census = summarizeGaps(summaries);
    return gate;
}

/** The pinned census holds (only checked where it is pinned). */
bool
censusOk(const Options &o, const Gate &gate)
{
    const bool pinned = o.workload->name == std::string("best_r32") &&
                        o.seed == kDefaultSuiteSeed &&
                        o.loops == SuiteParams{}.numLoops;
    if (!pinned)
        return true;
    const GapReport &c = gate.census;
    if (c.optimal == kPinnedOptimal && c.gapOne == kPinnedGapOne &&
        c.unproven == kPinnedUnproven)
        return true;
    std::cerr << "certificate census " << c.optimal << "/" << c.gapOne
              << "/" << c.unproven << " differs from the pinned "
              << kPinnedOptimal << "/" << kPinnedGapOne << "/"
              << kPinnedUnproven << "\n";
    return false;
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return double(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Human-readable report, then the result as the last stdout line. */
void
report(const Options &o, const std::string &context, bool correct,
       long attempted, long failed, const std::vector<Metric> &metrics)
{
    std::cout << "workload " << o.workload->name << " seed " << o.seed
              << " loops " << o.loops << " trace " << int(o.trace) << " "
              << context << "\n";
    for (const Metric &m : metrics) {
        std::printf("  %-24s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
        std::fflush(stdout);
    }
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << formatNumber(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

// ---------------------------------------------------------------------------
// The two kinds of run.
// ---------------------------------------------------------------------------

/** End-to-end run: untraced passes until the time is up, then the gate. */
int
runTimed(const Options &o)
{
    const Workload &w = *o.workload;
    SetupTimer setup(o);
    const Setup s = setup.rep();
    // Serial: each job's fastest call over the passes, which strips the
    // slowdowns other tenants of the machine cause from run to run.
    // Threaded: per-pass means (see below).
    std::vector<double> passRates, best, p50s, p99s;
    std::optional<Quality> first;
    bool consistent = true;
    Pass last;
    int passes = 0;
    const Clock::time_point start = Clock::now();
    while (passes < kMinPasses ||
           secondsBetween(start, Clock::now()) < o.seconds) {
        // Set-up repetitions are spread over the run, so their median
        // samples the same machine conditions as the passes.
        setup.rep();
        setup.rep();
        Pass p = w.threaded
                     ? threadedPass(s, o.threads)
                     : serialPass(s, w, *s.hrms, *s.ims, nullptr, nullptr,
                                  nullptr);
        ++passes;
        passRates.push_back(double(s.jobs.size()) / p.seconds);
        if (w.threaded) {
            // The pool keeps per-job times inside the library. Stand-ins:
            // the mean job service time (worker busy seconds per job),
            // and the worker-seconds of wall time per job, which adds
            // the idle tail, claiming and the runner's own planning.
            double busy = 0;
            for (const WorkerPerf &wp : p.perf)
                busy += wp.scheduleSeconds + wp.memoWaitSeconds;
            const double n = double(s.jobs.size());
            p50s.push_back(1e6 * busy / n);
            p99s.push_back(1e6 * p.seconds * o.threads / n);
        } else {
            best.resize(p.jobSeconds.size(), 1e300);
            for (std::size_t i = 0; i < p.jobSeconds.size(); ++i)
                best[i] = std::min(best[i], 1e6 * p.jobSeconds[i]);
        }
        const Quality q = quality(s, p);
        if (!first)
            first = q;
        else if (!(q == *first))
            consistent = false;
        last = std::move(p);
    }
    const double rss = peakRssMb();
    while (setup.reps() < kSetupReps)
        setup.rep();

    const Gate gate = checkResults(o, s, last, nullptr, nullptr);
    const bool census = censusOk(o, gate);
    if (!consistent)
        std::cerr << "passes disagree on the schedules' quality\n";

    const double p50 = w.threaded ? median(p50s) : percentile(best, 0.50);
    const double p99 = w.threaded ? median(p99s) : percentile(best, 0.99);
    std::ostringstream context;
    context << "jobs " << s.jobs.size() << " passes " << passes;
    if (w.threaded)
        context << " threads " << o.threads;
    else
        context << " latency-samples " << best.size();
    context << " simulated " << gate.simulated << " census "
            << gate.census.optimal << "/" << gate.census.gapOne << "/"
            << gate.census.unproven;
    const std::vector<Metric> metrics = {
        {"setup_s", setup.setupSeconds(), "s"},
        {"jobs_per_s", median(passRates), "1/s"},
        {"job_us_p50", p50, "us"},
        {"job_us_p99", p99, "us"},
        {"peak_rss_mb", rss, "MB"},
        {"exec_cycles", double(first->execCycles), "cycles"},
        {"mem_ops", double(first->memOps), "count"},
        {"fit_jobs", double(first->fit), "count"},
    };
    const bool correct = gate.failed == 0 && census && consistent;
    report(o, context.str(), correct, long(s.jobs.size()), gate.failed,
           metrics);
    return correct ? 0 : 1;
}

/**
 * Traced run: one untraced baseline pass, then traced passes until the
 * time is up (spans recorded for the first), allocation replays, the
 * gate under spans, and the per-layer metrics (per pass).
 */
int
runTraced(const Options &o)
{
    const Workload &w = *o.workload;
    SetupTimer setup(o);
    Setup s = setup.rep();
    while (setup.reps() < kSetupReps)
        s = setup.rep();

    // Untraced baselines: the serial pass the traced one is compared
    // with, and on the threaded workload the runner's own counters.
    std::optional<Pass> grid;
    if (w.threaded)
        grid = threadedPass(s, o.threads);
    double baselineS = 0;
    Quality baseline;
    {
        std::optional<ScheduleMemo> memo;
        if (w.threaded)
            memo.emplace();
        const Pass p = serialPass(s, w, *s.hrms, *s.ims,
                                  memo ? &*memo : nullptr, nullptr, nullptr);
        baselineS = p.seconds;
        baseline = quality(s, p);
    }

    Tracer tracer;
    Layers layers;
    Pass last;
    int passes = 0;
    const Clock::time_point start = Clock::now();
    do {
        tracer.setRecording(passes == 0);
        std::vector<ProbedSchedule> kept;
        TracingScheduler hrms(*s.hrms, false, tracer, layers, kept);
        TracingScheduler ims(*s.ims, true, tracer, layers, kept);
        // The grid repeats (loop, II) probes across budgets; the serial
        // replay of it memoizes them as the runner does, so the
        // decorator sees the probes that are actually scheduled.
        std::optional<ScheduleMemo> memo;
        if (w.threaded)
            memo.emplace();
        const Clock::time_point passStart = Clock::now();
        {
            Scope passSpan(&tracer, "pass");
            last = serialPass(s, w, hrms, ims, memo ? &*memo : nullptr,
                              &tracer, &layers);
            tracer.setJob(-1);
        }
        layers.tracedWallS += secondsBetween(passStart, Clock::now());

        // Replay each probed schedule's lifetime analysis and
        // allocation at its job's budget: every successful probe of the
        // strategy drivers is allocated exactly once.
        {
            Scope replay(&tracer, "replay", &layers.replayS);
            for (const ProbedSchedule &p : kept) {
                tracer.setJob(p.job);
                {
                    Scope span(&tracer, "liferange", &layers.lifeS);
                    const LifetimeInfo info =
                        analyzeLifetimes(p.graph, p.sched);
                    (void)info;
                }
                ++layers.lifeCalls;
                AllocationOutcome alloc;
                {
                    Scope span(&tracer, "regalloc", &layers.allocS);
                    alloc = allocateLoop(
                        p.graph, p.sched,
                        s.jobs[std::size_t(p.job)].options.registers);
                }
                ++layers.allocCalls;
                layers.allocFits += alloc.fits;
            }
            tracer.setJob(-1);
        }
        for (std::size_t i = 0; i < last.results.size(); ++i) {
            if (last.threw[i])
                continue;
            const PipelineResult &r = last.results[i];
            layers.attempts += r.attempts;
            layers.fallbacks += r.usedFallback;
            if (r.spilledLifetimes > 0)
                layers.spillRounds += r.rounds;
            layers.spillLifetimes += r.spilledLifetimes;
        }
        ++passes;
    } while (secondsBetween(start, Clock::now()) < o.seconds);

    tracer.setRecording(true);
    Gate gate;
    {
        Scope span(&tracer, "gate");
        gate = checkResults(o, s, last, &tracer, &layers);
        tracer.setJob(-1);
    }
    const bool census = censusOk(o, gate);
    // Instrumentation must never change a schedule.
    const bool unchanged = quality(s, last) == baseline;
    if (!unchanged)
        std::cerr << "the traced pass changed the schedules' quality\n";
    std::string traceFile;
    if (!o.traceDir.empty()) {
        traceFile = o.traceDir + "/trace-" + w.name + ".json";
        tracer.write(traceFile);
    }

    const double k = 1.0 / passes;
    // allocateLoop analyzes lifetimes itself: the allocator's own time
    // is the replay minus that analysis.
    const double regallocS = (layers.allocS - layers.lifeS) * k;
    const double lifeS = layers.lifeS * k;
    const double pipelinerS = layers.pipelinerS * k;
    const double probeS = layers.probeS * k;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    double schedS = 0, waitS = 0, stealS = 0, maxSched = 0;
    long steals = 0, claims = 0;
    SingleFlightStats memo, bounds;
    if (grid) {
        for (const WorkerPerf &wp : grid->perf) {
            schedS += wp.scheduleSeconds;
            waitS += wp.memoWaitSeconds;
            stealS += wp.stealSeconds;
            steals += wp.steals;
            claims += wp.claims;
            maxSched = std::max(maxSched, wp.scheduleSeconds);
        }
        memo = grid->memo.schedule;
        bounds = grid->memo.bounds;
    }
    const double meanSched =
        grid && !grid->perf.empty() ? schedS / double(grid->perf.size()) : 0;

    const std::vector<Metric> metrics = {
        {"workload.gen_s", setup.genSeconds(), "s"},
        {"sched.mii_s", layers.miiS * k, "s"},
        {"sched.mii_calls", double(layers.miiCalls) * k, "count"},
        {"sched.probe_s", probeS, "s"},
        {"sched.probes", double(layers.probes) * k, "count"},
        {"sched.probe_ok_ratio",
         ratio(double(layers.probesOk), double(layers.probes)), "ratio"},
        {"sched.ims_probes", double(layers.imsProbes) * k, "count"},
        {"liferange.s", lifeS, "s"},
        {"liferange.calls", double(layers.lifeCalls) * k, "count"},
        {"regalloc.s", regallocS, "s"},
        {"regalloc.calls", double(layers.allocCalls) * k, "count"},
        {"regalloc.fit_ratio",
         ratio(double(layers.allocFits), double(layers.allocCalls)),
         "ratio"},
        {"regalloc.share", ratio(regallocS, pipelinerS), "ratio"},
        {"pipeliner.s", pipelinerS, "s"},
        {"pipeliner.other_s", pipelinerS - probeS - lifeS - regallocS, "s"},
        {"pipeliner.attempts", double(layers.attempts) * k, "count"},
        {"pipeliner.fallbacks", double(layers.fallbacks) * k, "count"},
        {"spill.rounds", double(layers.spillRounds) * k, "count"},
        {"spill.lifetimes", double(layers.spillLifetimes) * k, "count"},
        {"driver.schedule_s", schedS, "s"},
        {"driver.memo_wait_s", waitS, "s"},
        {"driver.steal_s", stealS, "s"},
        {"driver.steals", double(steals), "count"},
        {"driver.claims", double(claims), "count"},
        {"driver.imbalance", ratio(maxSched, meanSched), "ratio"},
        {"memo.requests", double(memo.requests), "count"},
        {"memo.hit_ratio",
         ratio(double(memo.requests - memo.computes), double(memo.requests)),
         "ratio"},
        {"memo.bounds_hit_ratio",
         ratio(double(bounds.requests - bounds.computes),
               double(bounds.requests)),
         "ratio"},
        {"verify.s", layers.verifyS, "s"},
        {"certify.s", layers.certifyS, "s"},
        {"certify.optimal_ratio",
         ratio(double(gate.census.optimal), double(gate.census.jobs)),
         "ratio"},
        {"codegen.s", layers.codegenS, "s"},
        {"sim.s", layers.simS, "s"},
        {"trace.overhead_ratio",
         ratio(layers.tracedWallS * k, baselineS), "ratio"},
    };
    std::ostringstream context;
    context << "jobs " << s.jobs.size() << " traced-passes " << passes
            << " untraced-pass-s " << formatNumber(baselineS)
            << " replay-s " << formatNumber(layers.replayS * k)
            << " spans " << tracer.spanCount();
    if (!traceFile.empty())
        context << " trace-file " << traceFile;
    const bool correct = gate.failed == 0 && census && unchanged;
    report(o, context.str(), correct, long(s.jobs.size()), gate.failed,
           metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseArgs(argc, argv);
        return o.trace ? runTraced(o) : runTimed(o);
    } catch (const std::exception &e) {
        std::cerr << "swp_perfbench: " << e.what() << "\n";
        return 1;
    }
}
