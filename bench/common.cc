#include "common.hh"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>

#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp::benchutil
{

namespace
{

struct RecordedTable
{
    std::string name;
    Table table;
};

struct RecordedMetric
{
    std::string name;
    double value;
};

std::vector<RecordedTable> &
recordedTables()
{
    static std::vector<RecordedTable> tables;
    return tables;
}

std::vector<RecordedMetric> &
recordedMetrics()
{
    static std::vector<RecordedMetric> metrics;
    return metrics;
}

/** Whether the harness actually used the generated suite — gates the
    JSON "suite" provenance stanza. */
bool &
suiteConsumed()
{
    static bool consumed = false;
    return consumed;
}

[[noreturn]] void
flagError(const std::string &msg)
{
    std::cerr << "bench: " << msg << "\n";
    std::exit(2);
}

/** Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    — strtod is laxer (hex, leading zeros/plus, trailing dot) and would
    emit cells that are not valid JSON. */
bool
isJsonNumber(const std::string &s)
{
    std::size_t i = 0;
    const auto digit = [&](std::size_t k) {
        return k < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[k]));
    };
    if (i < s.size() && s[i] == '-')
        ++i;
    if (!digit(i))
        return false;
    if (s[i] == '0')
        ++i;
    else
        while (digit(i))
            ++i;
    if (i < s.size() && s[i] == '.') {
        if (!digit(++i))
            return false;
        while (digit(i))
            ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        if (!digit(i))
            return false;
        while (digit(i))
            ++i;
    }
    return i == s.size();
}

/** Emit a table cell: as a bare number when it is one. */
std::string
jsonCell(const std::string &cell)
{
    return isJsonNumber(cell) ? cell : jsonQuote(cell);
}

} // namespace

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::Ideal: return "ideal (infinite registers)";
      case Variant::MaxLt: return "Max(LT)";
      case Variant::MaxLtTraf: return "Max(LT/Traf)";
      case Variant::MaxLtTrafMulti: return "Max(LT/Traf)+multiple";
      case Variant::MaxLtTrafMultiLastIi:
        return "Max(LT/Traf)+multiple+lastII";
      case Variant::IncreaseIi: return "increase-II";
      case Variant::BestOfAll: return "best-of-all";
    }
    SWP_PANIC("unknown variant ", int(v));
}

BatchJob
variantJob(int loopIndex, Variant v, int registers)
{
    BatchJob job;
    job.loop = loopIndex;
    job.options.registers = registers;
    switch (v) {
      case Variant::Ideal:
        job.strategy = Strategy::Ideal;
        return job;
      case Variant::MaxLt:
        job.strategy = Strategy::Spill;
        job.options.heuristic = SpillHeuristic::MaxLT;
        return job;
      case Variant::MaxLtTraf:
        job.strategy = Strategy::Spill;
        job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
        return job;
      case Variant::MaxLtTrafMulti:
        job.strategy = Strategy::Spill;
        job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
        job.options.multiSelect = true;
        return job;
      case Variant::MaxLtTrafMultiLastIi:
        job.strategy = Strategy::Spill;
        job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
        job.options.multiSelect = true;
        job.options.reuseLastIi = true;
        return job;
      case Variant::IncreaseIi:
        job.strategy = Strategy::IncreaseII;
        return job;
      case Variant::BestOfAll:
        job.strategy = Strategy::BestOfAll;
        job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
        job.options.multiSelect = true;
        job.options.reuseLastIi = true;
        return job;
    }
    SWP_PANIC("unknown variant ", int(v));
}

std::vector<BatchJob>
protoJobs(std::size_t n, const BatchJob &proto)
{
    std::vector<BatchJob> jobs(n, proto);
    for (std::size_t i = 0; i < n; ++i)
        jobs[i].loop = int(i);
    return jobs;
}

SuiteRunner &
suiteRunner()
{
    static SuiteRunner runner(benchOptions().run.threads);
    return runner;
}

RunOptions
benchRunOptions()
{
    return benchOptions().run.runOptions();
}

SuiteTotals
runSuite(const std::vector<SuiteLoop> &suite, const Machine &m,
         int registers, Variant v)
{
    std::vector<BatchJob> jobs;
    jobs.reserve(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        jobs.push_back(variantJob(int(i), v, registers));

    SuiteTotals totals;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<PipelineResult> results =
        suiteRunner().run(suite, m, jobs, benchRunOptions());
    totals.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    // Serial accumulation in loop order keeps the floating-point sums
    // (and thus the emitted JSON) bit-identical at any thread count.
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PipelineResult &r = results[i];
        totals.cycles += double(r.ii()) * double(suite[i].iterations);
        totals.memRefs +=
            double(r.memOpsPerIteration()) * double(suite[i].iterations);
        totals.attempts += r.attempts;
        totals.unfit += !r.success;
        totals.fallbacks += r.usedFallback;
        totals.spills += r.spilledLifetimes;
    }
    return totals;
}

std::vector<Machine>
evaluationMachines()
{
    if (benchOptions().run.machine)
        return {*benchOptions().run.machine};
    return {Machine::p1l4(), Machine::p2l4(), Machine::p2l6()};
}

Machine
benchMachine(const Machine &fallback)
{
    return benchOptions().run.machine.value_or(fallback);
}

const std::vector<SuiteLoop> &
evaluationSuite()
{
    suiteConsumed() = true;
    static const std::vector<SuiteLoop> suite =
        generateSuite(benchOptions().suite);
    return suite;
}

BenchOptions &
benchOptions()
{
    static BenchOptions options;
    return options;
}

void
initBenchArgs(int *argc, char ***argv, bool nativeJson)
{
    BenchOptions &opts = benchOptions();
    opts.nativeJson = nativeJson;

    // Rebuilt argv storage must outlive main's use of it.
    static std::vector<std::string> forwarded;
    static std::vector<char *> keep;

    keep.push_back((*argv)[0]);
    const auto next = [&](int &i, const char *flag) -> const char * {
        if (++i >= *argc)
            flagError(std::string("missing argument for ") + flag);
        return (*argv)[i];
    };
    for (int i = 1; i < *argc; ++i) {
        char *arg = (*argv)[i];
        std::string error;
        if (parseRunFlag(*argc, *argv, i, opts.run, error)) {
            if (!error.empty())
                flagError(error);
        } else if (!std::strcmp(arg, "--json")) {
            opts.jsonPath = next(i, arg);
        } else if (!std::strcmp(arg, "--loops")) {
            const char *text = next(i, arg);
            if (!parseIntInRange(text, 1, 1000000, opts.suite.numLoops))
                flagError(std::string("bad --loops count ") + text);
        } else {
            keep.push_back(arg);
        }
    }
    if (opts.run.seed)
        opts.suite.seed = *opts.run.seed;
    // Fail before the (potentially long) run, not after it.
    if (!opts.jsonPath.empty() && !probeWritable(opts.jsonPath))
        flagError("cannot write " + opts.jsonPath);
    if (nativeJson && !opts.jsonPath.empty()) {
        forwarded.push_back("--benchmark_out=" + opts.jsonPath);
        forwarded.push_back("--benchmark_out_format=json");
        for (std::string &flag : forwarded)
            keep.push_back(flag.data());
    }
    keep.push_back(nullptr);
    *argc = int(keep.size()) - 1;
    *argv = keep.data();
}

void
recordTable(const std::string &name, const Table &table)
{
    // Replace by name so --benchmark_repetitions reruns overwrite
    // instead of duplicating.
    for (RecordedTable &prev : recordedTables()) {
        if (prev.name == name) {
            prev.table = table;
            return;
        }
    }
    recordedTables().push_back({name, table});
}

void
recordMetric(const std::string &name, double value)
{
    for (RecordedMetric &prev : recordedMetrics()) {
        if (prev.name == name) {
            prev.value = value;
            return;
        }
    }
    recordedMetrics().push_back({name, value});
}

void
writeBenchJson(const std::string &benchName)
{
    const BenchOptions &opts = benchOptions();
    if (opts.jsonPath.empty() || opts.nativeJson)
        return;
    if (recordedTables().empty() && recordedMetrics().empty()) {
        // Nothing ran (e.g. --benchmark_list_tests or a non-matching
        // filter): keep any previous results file intact.
        std::cerr << "no results recorded; not writing " << opts.jsonPath
                  << "\n";
        return;
    }

    std::ofstream out(opts.jsonPath);
    if (!out)
        flagError("cannot write " + opts.jsonPath);
    out.precision(std::numeric_limits<double>::max_digits10);

    out << "{\n";
    out << "  \"bench\": " << jsonQuote(benchName) << ",\n";
    if (suiteConsumed()) {
        out << "  \"suite\": {\"seed\": \"" << opts.suite.seed
            << "\", \"loops\": " << opts.suite.numLoops << "},\n";
    }

    out << "  \"metrics\": {";
    const auto &metrics = recordedMetrics();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << jsonQuote(metrics[i].name) << ": "
            << metrics[i].value;
    }
    out << "},\n";

    out << "  \"tables\": [";
    const auto &tables = recordedTables();
    for (std::size_t t = 0; t < tables.size(); ++t) {
        const Table &table = tables[t].table;
        out << (t ? ",\n" : "\n") << "    {\"name\": "
            << jsonQuote(tables[t].name) << ",\n     \"header\": [";
        const auto &header = table.header();
        for (std::size_t c = 0; c < header.size(); ++c)
            out << (c ? ", " : "") << jsonQuote(header[c]);
        out << "],\n     \"rows\": [";
        const auto &rows = table.rows();
        for (std::size_t r = 0; r < rows.size(); ++r) {
            out << (r ? ",\n              " : "") << "[";
            for (std::size_t c = 0; c < rows[r].size(); ++c)
                out << (c ? ", " : "") << jsonCell(rows[r][c]);
            out << "]";
        }
        out << "]}";
    }
    out << "\n  ]\n}\n";

    std::cout << "results written to " << opts.jsonPath << "\n";
}

} // namespace swp::benchutil
