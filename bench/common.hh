/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the
 * paper's tables and figures: the harness flag layer (on top of the
 * run flags shared with swpipe_cli, driver/run_flags.hh), strategy
 * variants, whole-suite execution totals, and cycle/traffic accounting.
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

#include <iostream>
#include <string>
#include <vector>

#include "driver/run_flags.hh"
#include "driver/suite_runner.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "support/diag.hh"
#include "support/table.hh"
#include "workload/suitegen.hh"

namespace swp::benchutil
{

/**
 * Harness-level options, parsed from argv before google-benchmark sees
 * it. Every harness accepts the shared run flags of driver/run_flags.hh
 * (--threads, --seed, --verify, --certify, --machine) plus its
 * own:
 *
 *   --json <path>    write machine-readable results to <path>; an
 *                    unwritable path exits with status 2 before any
 *                    benchmark runs
 *   --loops <n>      generate an <n>-loop suite (default 1258)
 *
 * --machine makes grids that sweep the Section 5 configurations
 * collapse to the one specified machine. A bad flag value, like a
 * FatalError raised while the benchmarks run (a --verify or --certify
 * violation, say), prints its message and exits with status 2.
 */
struct BenchOptions
{
    SuiteParams suite;  ///< --loops, and --seed once parsed.
    std::string jsonPath;
    RunFlags run;

    /** google-benchmark's own JSON reporter writes jsonPath itself
        (adaptive micro-benchmarks) instead of the table recorder. */
    bool nativeJson = false;
};

/** The process-wide options (mutated once by initBenchArgs). */
BenchOptions &benchOptions();

/**
 * Strip the swp flags from argv. Call before benchmark::Initialize;
 * with nativeJson, --json is forwarded as google-benchmark's
 * --benchmark_out so the adaptive timing results land in the file.
 */
void initBenchArgs(int *argc, char ***argv, bool nativeJson = false);

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

/** The grid job evaluating one variant on one suite loop. */
BatchJob variantJob(int loopIndex, Variant v, int registers);

/** n copies of a prototype job, targeting loops 0..n-1 in order. */
std::vector<BatchJob> protoJobs(std::size_t n, const BatchJob &proto);

/**
 * The process-wide batch runner, built from --threads on first use.
 * All harness grids funnel through it so the whole experiment shares
 * one evaluation path (and one MII memo).
 */
SuiteRunner &suiteRunner();

/** Run options carrying the --verify and --certify flags. */
RunOptions benchRunOptions();

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
        swp::benchutil::initBenchArgs(&argc, &argv, nativeJson);        \
        ::benchmark::Initialize(&argc, argv);                           \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))       \
            return 1;                                                   \
        try {                                                           \
            ::benchmark::RunSpecifiedBenchmarks();                      \
        } catch (const swp::FatalError &e) {                            \
            std::cerr << e.what() << "\n";                              \
            return 2;                                                   \
        }                                                               \
        ::benchmark::Shutdown();                                        \
        swp::benchutil::writeBenchJson(benchName);                      \
        return 0;                                                       \
    }

#define SWP_BENCH_MAIN(benchName) SWP_BENCH_MAIN_IMPL(benchName, false)

/** For harnesses whose results come from google-benchmark's adaptive
    timing rather than recorded tables. */
#define SWP_BENCH_MAIN_NATIVE_JSON(benchName)                           \
    SWP_BENCH_MAIN_IMPL(benchName, true)

#endif // SWP_BENCH_COMMON_HH
