/**
 * @file
 * Synthetic Perfect Club substitute.
 *
 * The paper evaluates on 1258 innermost DO-loop dependence graphs
 * extracted from the Perfect Club by the ICTINEO compiler — neither of
 * which is available. This generator produces a deterministic suite of
 * the same size whose *distributions* match what the paper's phenomena
 * depend on: operation mix (FP memory/add/multiply traffic with rare
 * divide/sqrt), dependence topology (chains, fan-out, reductions),
 * loop-carried register dependences (both true recurrences and
 * cross-iteration uses, whose distance components resist the increase-II
 * strategy), loop invariants, and per-loop trip counts used as execution
 * weights.
 *
 * A small fraction of loops ("heavy cross-iteration state" loops, like
 * APSI's CPADE/PADEC kernels) carries enough distance components plus
 * invariants to exceed practical register files at any II; these are the
 * loops Table 1 reports as never converging, and they receive larger
 * trip counts, mirroring the paper's observation that such loops account
 * for a disproportionate share of execution time.
 */

#ifndef SWP_WORKLOAD_SUITEGEN_HH
#define SWP_WORKLOAD_SUITEGEN_HH

#include <cstdint>
#include <vector>

#include "ir/ddg.hh"

namespace swp
{

/** One suite entry: a loop and its dynamic trip count (weight). */
struct SuiteLoop
{
    Ddg graph;
    long iterations = 1;
};

/**
 * The pinned default seed: every run of the generator (benches, tests,
 * the CLI) derives from this unless a --seed flag overrides it, so the
 * published numbers are reproducible from the repo alone.
 */
inline constexpr std::uint64_t kDefaultSuiteSeed = 0x5eedDECADEull;

/** Generator knobs (defaults reproduce the evaluation suite). */
struct SuiteParams
{
    int numLoops = 1258;
    std::uint64_t seed = kDefaultSuiteSeed;
};

/** Generate the deterministic evaluation suite. */
std::vector<SuiteLoop> generateSuite(const SuiteParams &params = {});

/** Generate just one loop of the suite (same result as the full run). */
SuiteLoop generateSuiteLoop(const SuiteParams &params, int index);

} // namespace swp

#endif // SWP_WORKLOAD_SUITEGEN_HH
