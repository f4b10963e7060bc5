/**
 * @file
 * Helpers shared by the modulo scheduling algorithms: longest-path
 * priorities at a given II and complex-group feasibility checks.
 */

#ifndef SWP_SCHED_SCHED_UTIL_HH
#define SWP_SCHED_SCHED_UTIL_HH

#include <limits>
#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "sched/groups.hh"

namespace swp
{

constexpr long schedNegInf = std::numeric_limits<long>::min() / 4;
constexpr long schedPosInf = std::numeric_limits<long>::max() / 4;

/**
 * Per-node ASAP and height longest paths with edge weight
 * latency(src) - II * distance. Only meaningful when II >= RecMII
 * (no positive cycles); computed by Bellman-Ford-style relaxation.
 */
struct NodePriorities
{
    std::vector<long> asap;
    std::vector<long> height;

    /** Empty; compute() fills it (workspace reuse across probes). */
    NodePriorities() = default;

    NodePriorities(const Ddg &g, const Machine &m, int ii)
    {
        compute(g, m, ii);
    }

    /** Recompute for (g, m, ii); the buffers are reused, not grown. */
    void compute(const Ddg &g, const Machine &m, int ii);
};

/**
 * Check dependence constraints between members of the same complex
 * group, whose relative offsets are fixed: every internal edge must be
 * satisfiable at this II, and fused edges must sit at their exact
 * offset. A self edge is an internal edge of its singleton group: it
 * needs 0 >= latency - II * distance. Placement enforces the edges
 * between groups, so a complete schedule satisfies every edge.
 */
bool groupsInternallyFeasible(const Ddg &g, const Machine &m,
                              const GroupSet &groups, int ii);

} // namespace swp

#endif // SWP_SCHED_SCHED_UTIL_HH
