/**
 * @file
 * swpipe_cli: command-line driver for the register-constrained
 * pipeliner. Reads loops from .ddg files (or uses built-in loops),
 * schedules them under a register budget with the selected strategy,
 * and optionally emits the kernel listing, the MVE form, a simulation
 * check, or machine-readable CSV.
 *
 * Usage:
 *   swpipe_cli [options] [file.ddg ...]
 *
 * Besides the run flags every bench harness shares (--threads, --seed,
 * --verify, --certify, --machine; see driver/run_flags.hh), the options
 * are:
 *   --registers N                 register budget (default 32)
 *   --strategy ideal|increase-ii|spill|best   (default best)
 *   --scheduler hrms|ims          core scheduler (default hrms)
 *   --heuristic lt|lttraf         spill selection (default lttraf)
 *   --single                      one lifetime per round (no 4.5 accel)
 *   --uses                        use-granularity spilling (Section 6)
 *   --no-fusion                   ablation: no complex-op fusion
 *   --kernel                      print the kernel listing
 *   --mve                         print the MVE form
 *   --simulate N                  execute N iterations and verify
 *   --certify-out FILE            also write one JSON line per job
 *                                 (ascending job index) with the
 *                                 certificate summary. Byte-stable
 *                                 across thread counts. Implies
 *                                 --certify; an unwritable FILE is
 *                                 refused before any loop is scheduled.
 *   --csv                         one CSV row per loop
 *   --example                     use the paper's Figure 2 loop
 *   --apsi                        use the APSI 47/50 analogues
 *   --suite N                     use the first N generated suite loops
 *                                 (the only loops --seed applies to)
 *
 * The default machine is p2l4. --verify and --certify report on stderr
 * (--certify adds the suite-wide optimality-gap report); stdout bytes
 * never change.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "codegen/kernel.hh"
#include "driver/run_flags.hh"
#include "driver/suite_runner.hh"
#include "ir/builder.hh"
#include "pipeliner/pipeliner.hh"
#include "sim/vliw.hh"
#include "support/diag.hh"
#include "support/strutil.hh"
#include "verify/legality.hh"
#include "workload/ddgio.hh"
#include "workload/paper_loops.hh"
#include "workload/suitegen.hh"

namespace
{

using namespace swp;

struct CliOptions
{
    Machine machine = Machine::p2l4();
    Strategy strategy = Strategy::BestOfAll;
    PipelinerOptions pipeline;
    bool kernel = false;
    bool mve = false;
    long simulate = 0;
    RunFlags run;
    std::string certifyOut;
    bool csv = false;
    std::vector<SuiteLoop> loops;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "swpipe_cli: " << msg
              << " (see the file header for usage)\n";
    std::exit(2);
}

const char *
nextArg(int argc, char **argv, int &i, const char *flag)
{
    if (++i >= argc)
        usageError(std::string("missing argument for ") + flag);
    return argv[i];
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    opts.pipeline.multiSelect = true;
    opts.pipeline.reuseLastIi = true;
    int suiteCount = 0;
    std::vector<std::string> positional;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string error;
        if (parseRunFlag(argc, argv, i, opts.run, error)) {
            if (!error.empty())
                usageError(error);
        } else if (!std::strcmp(arg, "--registers")) {
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseIntInRange(text, 1, 1 << 20,
                                 opts.pipeline.registers))
                usageError(std::string("bad --registers count ") + text +
                           " (want a positive integer)");
        } else if (!std::strcmp(arg, "--strategy")) {
            const char *name = nextArg(argc, argv, i, arg);
            if (!std::strcmp(name, "ideal"))
                opts.strategy = Strategy::Ideal;
            else if (!std::strcmp(name, "increase-ii"))
                opts.strategy = Strategy::IncreaseII;
            else if (!std::strcmp(name, "spill"))
                opts.strategy = Strategy::Spill;
            else if (!std::strcmp(name, "best"))
                opts.strategy = Strategy::BestOfAll;
            else
                usageError(std::string("unknown strategy ") + name);
        } else if (!std::strcmp(arg, "--scheduler")) {
            const char *name = nextArg(argc, argv, i, arg);
            if (!std::strcmp(name, "hrms"))
                opts.pipeline.scheduler = SchedulerKind::Hrms;
            else if (!std::strcmp(name, "ims"))
                opts.pipeline.scheduler = SchedulerKind::Ims;
            else
                usageError(std::string("unknown scheduler ") + name);
        } else if (!std::strcmp(arg, "--heuristic")) {
            const char *name = nextArg(argc, argv, i, arg);
            if (!std::strcmp(name, "lt"))
                opts.pipeline.heuristic = SpillHeuristic::MaxLT;
            else if (!std::strcmp(name, "lttraf"))
                opts.pipeline.heuristic = SpillHeuristic::MaxLTOverTraf;
            else
                usageError(std::string("unknown heuristic ") + name);
        } else if (!std::strcmp(arg, "--single")) {
            opts.pipeline.multiSelect = false;
            opts.pipeline.reuseLastIi = false;
        } else if (!std::strcmp(arg, "--uses")) {
            opts.pipeline.spillUses = true;
        } else if (!std::strcmp(arg, "--no-fusion")) {
            opts.pipeline.fuseSpillOps = false;
        } else if (!std::strcmp(arg, "--kernel")) {
            opts.kernel = true;
        } else if (!std::strcmp(arg, "--mve")) {
            opts.mve = true;
        } else if (!std::strcmp(arg, "--simulate")) {
            const char *text = nextArg(argc, argv, i, arg);
            long long iterations = 0;
            if (!parseInt64InRange(text, 1, 1000000000000LL, iterations))
                usageError(std::string("bad --simulate count ") + text +
                           " (want a positive iteration count)");
            opts.simulate = long(iterations);
        } else if (!std::strcmp(arg, "--certify-out")) {
            opts.certifyOut = nextArg(argc, argv, i, arg);
            opts.run.certify = true;
        } else if (!std::strcmp(arg, "--csv")) {
            opts.csv = true;
        } else if (!std::strcmp(arg, "--example")) {
            opts.loops.push_back({buildPaperExampleLoop(), 100});
        } else if (!std::strcmp(arg, "--apsi")) {
            opts.loops.push_back({buildApsi47Analogue(), 1000});
            opts.loops.push_back({buildApsi50Analogue(), 1000});
        } else if (!std::strcmp(arg, "--suite")) {
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseIntInRange(text, 1, 1000000, suiteCount))
                usageError(std::string("bad --suite count ") + text);
        } else if (arg[0] == '-') {
            usageError(std::string("unknown option ") + arg);
        } else {
            // Read after the flags: built-in loops come first, then
            // .ddg files, then suite loops, wherever each sits.
            positional.push_back(arg);
        }
    }
    if (opts.run.seed && suiteCount == 0)
        usageError("--seed only applies to --suite loops");
    if (opts.run.machine)
        opts.machine = *opts.run.machine;
    // Fail before the run, not after it.
    if (!opts.certifyOut.empty() && !probeWritable(opts.certifyOut))
        SWP_FATAL("cannot write certificate file ", opts.certifyOut);
    for (const std::string &path : positional) {
        for (SuiteLoop &loop : parseDdgFile(path))
            opts.loops.push_back(std::move(loop));
    }
    SuiteParams suiteParams;
    suiteParams.seed = opts.run.seed.value_or(kDefaultSuiteSeed);
    for (int i = 0; i < suiteCount; ++i)
        opts.loops.push_back(generateSuiteLoop(suiteParams, i));
    if (opts.loops.empty())
        opts.loops.push_back({buildPaperExampleLoop(), 100});
    return opts;
}

/**
 * Print one loop's report on stdout; its MII comes from the runner's
 * bounds memo. Diagnostics (the simulation-mismatch note) go to
 * stderr; they reach the exit code through the returned rc.
 */
int
reportLoop(const CliOptions &opts, SuiteRunner &runner,
           const SuiteLoop &loop, const PipelineResult &r)
{
    std::ostream &out = std::cout;
    const Ddg &g = loop.graph;
    const Machine &m = opts.machine;
    const int mii = runner.mii(g, m);

    if (opts.csv) {
        out << g.name() << "," << m.name() << ","
            << strategyName(opts.strategy) << ","
            << opts.pipeline.registers << ","
            << (r.success ? 1 : 0) << "," << mii << ","
            << r.ii() << "," << r.alloc.regsRequired << ","
            << r.spilledLifetimes << ","
            << r.memOpsPerIteration() << "," << r.attempts
            << "\n";
    } else {
        out << "loop '" << g.name() << "' on " << m.name()
            << ": " << (r.success ? "fits" : "DOES NOT FIT")
            << " budget " << opts.pipeline.registers << " — II="
            << r.ii() << " (MII " << mii << "), "
            << r.alloc.regsRequired << " regs, "
            << r.spilledLifetimes << " spills, "
            << r.memOpsPerIteration() << " mem ops/iter\n";
    }

    if (opts.kernel) {
        out << formatKernelListing(r.graph(), m, r.sched,
                                   r.alloc.rotAlloc);
    }
    if (opts.mve) {
        const LifetimeInfo info = analyzeLifetimes(r.graph(), r.sched);
        out << formatMveKernel(r.graph(), r.sched, info);
        if (opts.run.verify) {
            // The MVE layer lives outside PipelineResult, so the
            // per-job verification cannot see it; check it here, where
            // the allocation is actually produced and printed.
            const VerifyReport mv = verifyMveAllocation(
                r.graph(), r.sched, allocateMve(info));
            if (!mv.ok()) {
                SWP_FATAL("loop '", g.name(),
                          "': illegal MVE allocation:\n", mv.describe());
            }
        }
    }
    if (opts.simulate > 0) {
        std::string why;
        if (!equivalentToSequential(g, r.graph(), m, r.sched,
                                    r.alloc.rotAlloc, opts.simulate,
                                    &why)) {
            std::cerr << "simulation MISMATCH on '" << g.name()
                      << "': " << why << "\n";
            return 1;
        }
        if (!opts.csv) {
            out << "  simulation: " << opts.simulate
                << " iterations match the sequential reference\n";
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliOptions opts = parseArgs(argc, argv);

        // Evaluate all loops as one batch on the worker pool, then
        // report serially in input order — the output is byte-identical
        // at any --threads count.
        SuiteRunner runner(opts.run.threads);
        std::vector<BatchJob> jobs(opts.loops.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].loop = int(i);
            jobs[i].strategy = opts.strategy;
            jobs[i].options = opts.pipeline;
        }
        RunOptions ropts = opts.run.runOptions();
        std::vector<CertSummary> certs;
        if (opts.run.certify)
            ropts.certificates = &certs;
        const std::vector<swp::PipelineResult> results =
            runner.run(opts.loops, opts.machine, jobs, ropts);
        if (opts.run.certify) {
            // run() threw on any rejected certificate or contradiction,
            // so every summary here is checker-approved. All output is
            // stderr or the JSON file: --certify must never change the
            // fingerprinted stdout bytes.
            if (!opts.certifyOut.empty()) {
                std::ofstream out(opts.certifyOut,
                                  std::ios::out | std::ios::trunc);
                if (!out) {
                    SWP_FATAL("cannot write certificate file ",
                              opts.certifyOut);
                }
                for (std::size_t i = 0; i < certs.size(); ++i)
                    out << certSummaryJson(int(i), certs[i]) << "\n";
            }
            std::cerr << describeGapReport(summarizeGaps(certs)) << "\n";
        }
        if (opts.run.verify) {
            // run() threw on any violation, so reaching here means the
            // whole batch is legal. Stderr only: --verify must never
            // change the fingerprinted stdout bytes.
            std::cerr << "verify: " << jobs.size() << " of " << jobs.size()
                      << " results legal, 0 violations\n";
        }

        if (opts.csv) {
            std::cout << "loop,machine,strategy,budget,fits,mii,ii,"
                         "regs,spills,memops,attempts\n";
        }
        int rc = 0;
        for (std::size_t i = 0; i < opts.loops.size(); ++i)
            rc |= reportLoop(opts, runner, opts.loops[i], results[i]);
        return rc;
    } catch (const swp::FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        // E.g. allocation failure on a huge input: still a clean
        // refusal, not std::terminate.
        std::cerr << "swpipe_cli: " << e.what() << "\n";
        return 2;
    }
}
