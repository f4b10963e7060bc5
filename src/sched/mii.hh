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

/** A dependence arc of a recurrence region, between local node ids. */
struct RegionArc
{
    int src = 0;
    int dst = 0;
    long latency = 0;
    long distance = 0;
};

/**
 * One cyclic region: nodes [0, numNodes) and the live edges among
 * them, in any order (regionRecMii's answer does not depend on it).
 * latencySum is the sum of the members' latencies: the region's RecMII
 * is below it, so latencySum + 1 is always a feasible II for it.
 */
struct RecurrenceRegion
{
    int numNodes = 0;
    long latencySum = 0;
    const RegionArc *first = nullptr;
    const RegionArc *last = nullptr;
};

/**
 * The larger of `floor` and the region's RecMII: one Bellman-Ford
 * positive-cycle check at `floor`, then, if it fails, a binary search
 * above it. recMii runs it on each cyclic SCC of the graph, and HRMS on
 * each recurrence it ranks. `dist` is Bellman-Ford storage the caller
 * recycles.
 */
long regionRecMii(const RecurrenceRegion &r, long floor,
                  std::vector<long> &dist);

} // namespace swp

#endif // SWP_SCHED_MII_HH
