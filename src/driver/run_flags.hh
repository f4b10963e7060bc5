/**
 * @file
 * The run flags that swpipe_cli and every bench harness share, each
 * defined once here. --threads, --verify and --certify never change
 * output bytes; --seed and --machine name the work.
 *
 *   --threads N|auto  worker threads (default 1; 0 or "auto" = all
 *                     hardware threads; at most 4096).
 *   --seed S          suite generator seed, an unsigned 64-bit integer
 *                     (default: the pinned kDefaultSuiteSeed).
 *   --verify          check every result with the independent legality
 *                     verifier (src/verify); a violation exits 2 with a
 *                     diagnostic naming the violated edge/slot/range.
 *   --certify         generate an optimality certificate (critical-
 *                     cycle, pigeonhole and register-floor lower bounds
 *                     with explicit witnesses) for every result, check
 *                     it independently and against the achieved
 *                     II/register count; a rejection exits 2.
 *   --machine SPEC    a preset name (p1l4, p2l4, p2l6, universal) or
 *                     the path of a machine-description file
 *                     (machine/machdesc; see examples/machines/),
 *                     resolved while parsing.
 *
 * The parser never prints or exits: a bad value comes back as a
 * diagnostic, which each front end prints with its own prefix before
 * exiting with status 2, before any work starts.
 */

#ifndef SWP_DRIVER_RUN_FLAGS_HH
#define SWP_DRIVER_RUN_FLAGS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "driver/suite_runner.hh"
#include "machine/machine.hh"

namespace swp
{

/** The parsed shared run flags; defaults are the flags' defaults. */
struct RunFlags
{
    int threads = 1;  ///< SuiteRunner's convention: 0 = all hardware.
    std::optional<std::uint64_t> seed;  ///< Empty: the pinned seed.
    bool verify = false;
    bool certify = false;
    std::optional<Machine> machine;  ///< Empty: the front end's default.

    /** The RunOptions carrying --verify and --certify. */
    RunOptions
    runOptions() const
    {
        RunOptions opts;
        opts.verify = verify;
        opts.certify = certify;
        return opts;
    }
};

/**
 * Offer argv[i] to the shared parser. Returns false, touching nothing,
 * when argv[i] is not a run flag. Otherwise consumes the flag and its
 * value (leaving i on the last argument consumed) and returns true; a
 * missing or bad value leaves `flags` untouched and sets `error` to the
 * diagnostic.
 */
bool parseRunFlag(int argc, const char *const *argv, int &i,
                  RunFlags &flags, std::string &error);

/**
 * Whether `path` can be written, probed before a long run instead of
 * failing after it. Append mode probes without clobbering an existing
 * file, and a file the probe created is removed again, so a refused or
 * interrupted run leaves no empty output behind.
 */
bool probeWritable(const std::string &path);

} // namespace swp

#endif // SWP_DRIVER_RUN_FLAGS_HH
