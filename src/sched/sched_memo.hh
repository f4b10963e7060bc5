/**
 * @file
 * Memoization of whole (graph, machine, II, scheduler) probe outcomes.
 *
 * The experiment grids revisit the same scheduling probes constantly:
 * best-of-all's binary search re-asks IIs the preceding spill rounds
 * already tried on the same loop, and every register-file sweep re-runs
 * identical (loop, II) probes cell after cell. ScheduleMemo caches the
 * outcome of ModuloScheduler::scheduleAt — including the *negative*
 * outcome "no schedule exists at this II", which is exactly what the
 * failed low-II probes of a linear or binary II search produce — keyed
 * by structural fingerprints, so a probe is scheduled at most once per
 * process no matter how many grid cells ask for it.
 *
 * Memoization never changes results: schedulers are pure functions of
 * (graph, machine, II) — the driver's thread-count determinism already
 * depends on that — and the drivers count their `attempts` per probe
 * *request*, so suite output is byte-identical with the memo on or off.
 */

#ifndef SWP_SCHED_SCHED_MEMO_HH
#define SWP_SCHED_SCHED_MEMO_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "sched/fingerprint.hh"
#include "sched/schedule.hh"
#include "sched/scheduler.hh"
#include "support/singleflight.hh"

namespace swp
{

/**
 * Thread-safe, single-flight cache of scheduleAt outcomes. Every probe
 * is kept for the life of the memo — the right trade for grid
 * evaluations, whose working set is the grid.
 *
 * The backing store is striped by key fingerprint (threadsHint sizes
 * the stripe array) so a full worker pool hammering the memo doesn't
 * serialize on one mutex; stats() aggregates the stripes under one
 * consistent snapshot.
 */
class ScheduleMemo
{
  public:
    using Stats = SingleFlightStats;

    explicit ScheduleMemo(bool verifyKeys = kVerifyMemoKeys,
                          int threadsHint = 1)
        : verifyKeys_(verifyKeys), cache_(threadsHint)
    {
    }

    /** How many lock stripes back the memo. */
    std::size_t stripeCount() const { return cache_.stripeCount(); }

    /**
     * inner.scheduleAt(g, m, ii), memoized. The first caller of a key
     * runs the scheduler; concurrent callers of the same key wait for
     * it (single-flight) and later callers hit the cache. Safe to call
     * concurrently with distinct `inner` instances of the same kind:
     * the result must only depend on (kind, g, m, ii), which every
     * scheduler in this library guarantees.
     */
    std::optional<Schedule> scheduleAt(ModuloScheduler &inner,
                                       SchedulerKind kind, const Ddg &g,
                                       const Machine &m, int ii);

    /** requests/computes/entries; computes == entries means no rework. */
    Stats stats() const { return cache_.stats(); }

  private:
    /** (graph fp, machine fp, II, scheduler kind). */
    using Key = std::tuple<std::uint64_t, std::uint64_t, int, int>;

    struct CachedProbe
    {
        std::optional<Schedule> sched;
        KeyWitness witness;
    };

    bool verifyKeys_;
    SingleFlightCache<Key, CachedProbe> cache_;
};

/**
 * ModuloScheduler adapter routing every probe through a ScheduleMemo.
 * The strategy drivers (pipeliner/pipeliner.cc) wrap each scheduler of
 * an evaluation in one, which is how the memo reaches every II search
 * without the search code knowing about it.
 */
class MemoizedScheduler final : public ModuloScheduler
{
  public:
    MemoizedScheduler(ScheduleMemo &memo, ModuloScheduler &inner,
                      SchedulerKind kind)
        : memo_(memo), inner_(inner), kind_(kind)
    {
    }

    std::string name() const override { return inner_.name(); }

    std::optional<Schedule>
    scheduleAt(const Ddg &g, const Machine &m, int ii) override
    {
        return memo_.scheduleAt(inner_, kind_, g, m, ii);
    }

  private:
    ScheduleMemo &memo_;
    ModuloScheduler &inner_;
    SchedulerKind kind_;
};

} // namespace swp

#endif // SWP_SCHED_SCHED_MEMO_HH
