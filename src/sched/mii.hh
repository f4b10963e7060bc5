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

/** MII = max(ResMII, RecMII). */
int mii(const Ddg &g, const Machine &m);

/**
 * The region and Bellman-Ford storage recMiiOfComponent builds its
 * subset region in, recycled from call to call. HRMS keeps one in its
 * workspace to rank recurrences on every probe. Nothing is cached: the
 * answer is recomputed on every call.
 */
class RecurrenceScratch
{
  public:
    RecurrenceScratch();
    ~RecurrenceScratch();

  private:
    friend int recMiiOfComponent(const Ddg &g, const Machine &m,
                                 const std::vector<NodeId> &nodes,
                                 RecurrenceScratch &scratch);
    struct Impl;
    Impl &impl();
    std::unique_ptr<Impl> impl_;
};

/**
 * RecMII restricted to a node subset (used to rank recurrences),
 * computed on the storage of `scratch`.
 */
int recMiiOfComponent(const Ddg &g, const Machine &m,
                      const std::vector<NodeId> &nodes,
                      RecurrenceScratch &scratch);

} // namespace swp

#endif // SWP_SCHED_MII_HH
