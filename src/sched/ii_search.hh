/**
 * @file
 * Linear II search: try successive initiation intervals until the core
 * scheduler produces a valid schedule. Exposes the attempt count so the
 * evaluation can report the scheduling-effort savings of the "start from
 * the last II tried" pruning heuristic (Section 4.5).
 */

#ifndef SWP_SCHED_II_SEARCH_HH
#define SWP_SCHED_II_SEARCH_HH

#include <optional>

#include "sched/scheduler.hh"

namespace swp
{

/** Outcome of an II search. */
struct IiSearchResult
{
    std::optional<Schedule> sched;
    /** Number of (II, schedule) attempts performed, failures included. */
    int attempts = 0;
};

/**
 * Try II = start_ii, start_ii+1, ... max_ii until the scheduler
 * succeeds.
 *
 * @param sched    Core scheduling algorithm.
 * @param g        The loop.
 * @param m        The machine.
 * @param start_ii First II to try (usually MII, or the pruned start).
 * @param max_ii   Inclusive upper limit; 0 selects a generous default
 *                 derived from the sequential schedule length.
 */
IiSearchResult searchIi(ModuloScheduler &sched, const Ddg &g,
                        const Machine &m, int start_ii, int max_ii = 0);

/** Default II upper bound: every op serialized, plus slack. */
int defaultMaxIi(const Ddg &g, const Machine &m);

} // namespace swp

#endif // SWP_SCHED_II_SEARCH_HH
