/**
 * @file
 * Lower bounds on the initiation interval (Section 2.2).
 *
 * MII = max(ResMII, RecMII). ResMII counts functional-unit occupancy
 * (non-pipelined units contribute their full latency, and any single
 * non-pipelined operation forces II >= its occupancy). RecMII is the
 * maximum over dependence cycles of ceil(sum(latency) / sum(distance)),
 * computed exactly by binary search with positive-cycle detection —
 * decomposed per strongly connected component, so each Bellman-Ford
 * sweep is restricted to one component's local edges and a component
 * whose cycles already fit the running maximum is dismissed with a
 * single feasibility check.
 */

#ifndef SWP_SCHED_MII_HH
#define SWP_SCHED_MII_HH

#include <memory>
#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"

namespace swp
{

/** Resource-constrained lower bound on II. */
int resMii(const Ddg &g, const Machine &m);

/** Recurrence-constrained lower bound on II (1 if the graph is acyclic). */
int recMii(const Ddg &g, const Machine &m);

/** RecMII restricted to a node subset (used to rank recurrences). */
int recMiiOfComponent(const Ddg &g, const Machine &m,
                      const std::vector<NodeId> &nodes);

/** MII = max(ResMII, RecMII). */
int mii(const Ddg &g, const Machine &m);

/**
 * True if scheduling the graph at the given II admits no positive
 * dependence cycle, i.e. II >= RecMII. Exposed for tests.
 */
bool iiFeasibleForRecurrences(const Ddg &g, const Machine &m, int ii);

/**
 * Cached cyclic-SCC decomposition of one (graph, machine) pair, keyed
 * by the structural fingerprints, so consecutive feasibility probes of
 * the same loop — an II search issues many — pay only the
 * component-local Bellman-Ford sweeps, not the decomposition. The
 * schedulers keep one in their workspace. Debug builds verify every
 * reuse structurally, so a fingerprint collision panics instead of
 * answering for another loop.
 */
class RecurrenceCache
{
  public:
    RecurrenceCache();
    ~RecurrenceCache();
    RecurrenceCache(RecurrenceCache &&) noexcept;
    RecurrenceCache &operator=(RecurrenceCache &&) noexcept;

  private:
    friend bool iiFeasibleForRecurrences(const Ddg &g, const Machine &m,
                                         int ii, RecurrenceCache &cache);
    friend int recMiiOfComponent(const Ddg &g, const Machine &m,
                                 const std::vector<NodeId> &nodes,
                                 RecurrenceCache &cache);
    struct Impl;
    Impl &impl();
    std::unique_ptr<Impl> impl_;
};

/** iiFeasibleForRecurrences with the decomposition reused via `cache`. */
bool iiFeasibleForRecurrences(const Ddg &g, const Machine &m, int ii,
                              RecurrenceCache &cache);

/**
 * recMiiOfComponent on the region and Bellman-Ford storage of `cache`,
 * recycled from call to call. The subset is never cached: only the
 * storage is reused, so the answer is always recomputed.
 */
int recMiiOfComponent(const Ddg &g, const Machine &m,
                      const std::vector<NodeId> &nodes,
                      RecurrenceCache &cache);

} // namespace swp

#endif // SWP_SCHED_MII_HH
