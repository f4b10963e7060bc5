/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the
 * paper's tables and figures: strategy variants, whole-suite execution
 * totals, and cycle/traffic accounting.
 *
 * Accounting follows the paper:
 *  - execution cycles of a loop = final II x trip count (the paper's
 *    figures are in units of 1e9 cycles over all 1258 loops);
 *  - dynamic memory references = memory ops per iteration x trip count;
 *  - scheduling time is wall clock, plus the machine-independent count
 *    of (II, schedule) attempts.
 */

#ifndef SWP_BENCH_COMMON_HH
#define SWP_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "driver/orchestrate.hh"
#include "driver/suite_runner.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "support/table.hh"
#include "workload/suitegen.hh"

namespace swp::benchutil
{

/**
 * Harness-level options, parsed from argv before google-benchmark sees
 * it. Every harness accepts:
 *
 *   --json <path>    write machine-readable results to <path>
 *   --seed <n>       override the suite generator seed (default pinned
 *                    to kDefaultSuiteSeed for reproducibility)
 *   --loops <n>      generate an <n>-loop suite (default 1258)
 *   --threads <n>    evaluation worker threads (default 1; 0 or "auto"
 *                    = all hardware threads). Results are deterministic:
 *                    output is byte-identical at any thread count.
 *   --memo <0|1>     schedule memoization (default 1). Results are
 *                    byte-identical either way; 0 re-schedules every
 *                    (graph, machine, II) probe, for measuring the
 *                    memo's effect and for CI's determinism diff.
 *   --chunk <auto|fixed>  job ordering/chunking policy (default auto
 *                    = heaviest loops first). Results are
 *                    byte-identical either way.
 *   --shard <i/N>    evaluate only shard i of N of every grid
 *                    (0-based; grid job j belongs to shard j mod N).
 *                    Each shard's tables and totals cover its own
 *                    jobs, so N shard processes split a grid across
 *                    machines; the per-shard JSON says which shard it
 *                    is. (Byte-exact cross-process merging is the
 *                    CLI's --shard/--merge-shards workflow, whose
 *                    shard files carry rendered per-job records.)
 *   --verify         check every evaluated result with the independent
 *                    legality verifier (src/verify); any violation
 *                    aborts the harness with a diagnostic naming the
 *                    violated edge/slot/range. Results and recorded
 *                    numbers are unchanged by the flag.
 *   --certify        generate and independently check an optimality
 *                    certificate (verify/certify: critical-cycle,
 *                    pigeonhole, and register-floor lower bounds) for
 *                    every evaluated result, and cross-check it against
 *                    the achieved II/register count; a rejected
 *                    certificate or a contradiction aborts the harness.
 *                    Results and recorded numbers are unchanged by the
 *                    flag.
 *   --machine <spec> evaluate on one machine instead of the harness's
 *                    defaults: a preset name (p1l4, p2l4, p2l6,
 *                    universal) or the path of a machine-description
 *                    file (machine/machdesc format). Grids that sweep
 *                    the Section 5 configurations collapse to the one
 *                    specified machine.
 *   --orchestrate <n>  run the harness's pipeline-evaluation grids as
 *                    n shard worker processes of this binary (the
 *                    orchestrator in src/driver/orchestrate, with
 *                    timeout/retry/resume), then replay the tables from
 *                    the merged per-job records — the written tables
 *                    match the serial run (wall-clock columns aside).
 *                    Grids that consume full schedules (lifetime
 *                    analyses, kernel validation, micro-timing) still
 *                    evaluate in-process.
 *   --orch-dir/--orch-timeout/--orch-retries/--orch-backoff/
 *   --no-resume/--inject-fail   as in swpipe_cli --orchestrate.
 *   --orch-record <path>  (worker-internal; appended by the
 *                    orchestrator) record every evaluated job into a
 *                    swp-shard-v1 file at <path> instead of expecting
 *                    to be a standalone run.
 */
struct BenchOptions
{
    SuiteParams suite;
    std::string jsonPath;
    int threads = 1;
    bool memo = true;
    ChunkPolicy chunk = ChunkPolicy::Auto;
    ShardSpec shard;
    bool verify = false;
    bool certify = false;
    /** --machine spec (preset name or description file); empty = the
        harness's default machine(s). */
    std::string machineSpec;

    /** google-benchmark's own JSON reporter writes jsonPath itself
        (adaptive micro-benchmarks) instead of the table recorder. */
    bool nativeJson = false;

    /** --orchestrate n: run the grids as n shard worker processes. */
    int orchestrate = 0;
    std::string orchDir;
    int orchTimeout = 600;
    int orchRetries = 2;
    int orchBackoffMs = 100;
    bool orchResume = true;
    std::vector<FaultInjection> inject;

    /** --orch-record: write evaluated jobs to this shard file (worker
        mode; appended to workers by the orchestrator). */
    std::string orchRecordPath;

    /** Harness name (set by initBenchArgs; labels shard files). */
    std::string benchName;
};

/** The process-wide options (mutated once by initBenchArgs). */
BenchOptions &benchOptions();

/**
 * Strip the swp flags from argv. Call before benchmark::Initialize;
 * with nativeJson, --json is forwarded as google-benchmark's
 * --benchmark_out so the adaptive timing results land in the file.
 * Under --orchestrate this is also where the worker fleet runs: the
 * call returns with the merged per-job record store loaded, and every
 * subsequent benchEvaluate() replays from it instead of evaluating.
 */
void initBenchArgs(int *argc, char ***argv, const std::string &benchName,
                   bool nativeJson = false);

/**
 * Scalar outcome of one grid job — everything the converted bench
 * tables are computed from, reproducible from a shard fleet's records.
 */
struct JobSummary
{
    /** False for jobs outside this process's shard (slot untouched). */
    bool evaluated = false;
    bool success = false;
    bool usedFallback = false;
    int ii = 0;       ///< Achieved initiation interval.
    int regs = 0;     ///< Registers required by the allocation.
    int spills = 0;   ///< Spilled lifetimes.
    int rounds = 0;   ///< Spill rounds taken.
    int attempts = 0; ///< Scheduling attempts.
    int memOps = 0;   ///< Memory operations per iteration.
};

/**
 * Evaluate a job grid and summarize each owned job. Normally runs the
 * grid on suiteRunner(); under --orch-record it additionally records
 * every evaluated job keyed by (machine, graph, options); under
 * --orchestrate it replays the summaries from the merged fleet records
 * without evaluating (a missing key is fatal — the fleet and this
 * process must run the same grids). Jobs are pure functions of their
 * key, so replayed summaries equal evaluated ones exactly.
 */
std::vector<JobSummary> benchEvaluate(const std::vector<SuiteLoop> &suite,
                                      const Machine &m,
                                      const std::vector<BatchJob> &jobs,
                                      const RunOptions &opts);

/** Write the --orch-record shard file (no-op outside worker mode). */
void writeOrchRecord();

/** Queue a finished table for --json emission. */
void recordTable(const std::string &name, const Table &table);

/** Queue a scalar result for --json emission. */
void recordMetric(const std::string &name, double value);

/** Write everything recorded to --json <path> (no-op without --json). */
void writeBenchJson(const std::string &benchName);

/** The evaluation variants of Figure 8 plus the Section 3/5 baselines. */
enum class Variant
{
    Ideal,                 ///< Unlimited registers.
    MaxLt,                 ///< Spill, Max(LT), one lifetime per round.
    MaxLtTraf,             ///< Spill, Max(LT/Traf), one per round.
    MaxLtTrafMulti,        ///< + multiple lifetimes per round.
    MaxLtTrafMultiLastIi,  ///< + II search starts at the last II tried.
    IncreaseIi,            ///< Section 3 strategy.
    BestOfAll,             ///< Section 5 combination.
};

const char *variantName(Variant v);

/** Run one variant on one loop. */
PipelineResult runVariant(const Ddg &g, const Machine &m, int registers,
                          Variant v);

/** The grid job evaluating one variant on one suite loop. */
BatchJob variantJob(int loopIndex, Variant v, int registers);

/** n copies of a prototype job, targeting loops 0..n-1 in order. */
std::vector<BatchJob> protoJobs(std::size_t n, const BatchJob &proto);

/**
 * The process-wide batch runner, built from --threads/--memo
 * on first use. All harness grids funnel through it so the whole
 * experiment shares one evaluation path (and one MII/RecMII memo).
 */
SuiteRunner &suiteRunner();

/** The process-wide shard spec (inactive by default). */
const ShardSpec &benchShard();

/**
 * Whether grid index i belongs to this process's shard. Every harness
 * guards its result accumulation with this so a sharded run reports
 * exactly the jobs it evaluated.
 */
bool ownsJob(std::size_t i);

/** Run options carrying the process-wide shard spec + chunk policy. */
RunOptions benchRunOptions();

/**
 * Chunk policy only — for grids whose jobs were already filtered to
 * this shard (e.g. a stage-2 subset built from stage-1's owned
 * results); sharding such a grid again would drop jobs.
 */
RunOptions benchChunkOptions();

/** " [shard i/N]" when sharded, "" otherwise — for report headlines. */
std::string shardSuffix();

/** Whole-suite totals for one (machine, registers, variant) cell. */
struct SuiteTotals
{
    double cycles = 0;    ///< Sum of II x iterations.
    double memRefs = 0;   ///< Sum of memory ops x iterations.
    long attempts = 0;    ///< (II, schedule) attempts.
    double seconds = 0;   ///< Wall-clock scheduling time.
    int unfit = 0;        ///< Loops left over budget.
    int fallbacks = 0;    ///< Loops that fell back to local scheduling.
    int spills = 0;       ///< Total lifetimes spilled.
};

SuiteTotals runSuite(const std::vector<SuiteLoop> &suite, const Machine &m,
                     int registers, Variant v);

/** The --machine override when given, else the three Section 5
    machine configurations. */
std::vector<Machine> evaluationMachines();

/** The --machine override when given, else `fallback` — for harnesses
    that evaluate a single fixed machine. */
Machine benchMachine(const Machine &fallback = Machine::p2l4());

/** The evaluation suite (cached across calls within one process). */
const std::vector<SuiteLoop> &evaluationSuite();

} // namespace swp::benchutil

/**
 * Harness entry point: BENCHMARK_MAIN plus the swp flag layer and the
 * --json emission. benchName labels the output document.
 */
#define SWP_BENCH_MAIN_IMPL(benchName, nativeJson)                      \
    int main(int argc, char **argv)                                     \
    {                                                                   \
        swp::benchutil::initBenchArgs(&argc, &argv, benchName,          \
                                      nativeJson);                      \
        ::benchmark::Initialize(&argc, argv);                           \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))       \
            return 1;                                                   \
        ::benchmark::RunSpecifiedBenchmarks();                          \
        ::benchmark::Shutdown();                                        \
        swp::benchutil::writeBenchJson(benchName);                      \
        swp::benchutil::writeOrchRecord();                              \
        return 0;                                                       \
    }

#define SWP_BENCH_MAIN(benchName) SWP_BENCH_MAIN_IMPL(benchName, false)

/** For harnesses whose results come from google-benchmark's adaptive
    timing rather than recorded tables. */
#define SWP_BENCH_MAIN_NATIVE_JSON(benchName)                           \
    SWP_BENCH_MAIN_IMPL(benchName, true)

#endif // SWP_BENCH_COMMON_HH
