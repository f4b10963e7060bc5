/**
 * @file
 * Helpers shared by the modulo scheduling algorithms: the per-probe arc
 * table, longest-path priorities at a given II and complex-group
 * feasibility checks.
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
 * The live edges of one probe, flattened once for a (graph, machine,
 * partition, II) quadruple, so the phases of a probe read one flat
 * table instead of re-walking Edge and Node records and the machine's
 * latency table each on its own.
 *
 * arcs() holds one Arc per live edge, in edge-id order. For every
 * group, inArcs(gi) / outArcs(gi) list the live edges that cross its
 * boundary (in edge-id order): each names the node outside the group,
 * the edge's distance and the bound that node's issue time puts on the
 * group's anchor,
 * bound = time(node) + delta, where with w = latency(src) -
 * II * distance and `off` the member's offset in the group:
 *
 *   in-arc  (src outside, dst a member): anchor >= time(src) + w - off
 *   out-arc (src a member, dst outside): anchor <= time(dst) - w - off
 *
 * All weights are formed in long: II * distance may exceed INT_MAX.
 * Built by build() on recycled storage; it holds no state beyond the
 * probe it was built for.
 */
class ArcTable
{
  public:
    /** One live edge. */
    struct Arc
    {
        NodeId src;
        NodeId dst;
        int srcGroup;
        int dstGroup;
        int distance;
        /** Exact issue distance of a fused edge (fusedDelayOf); 0 for
            an ordinary edge. */
        int fusedDelay;
        /** latency(src) - II * distance. */
        long weight;
    };

    /** A boundary arc of one group: the outside node, the edge's
        distance and the bound. */
    struct Bound
    {
        NodeId node;
        int distance;
        long delta;
    };

    /** One group's boundary arcs. */
    struct Bounds
    {
        const Bound *first;
        const Bound *last;
        const Bound *begin() const { return first; }
        const Bound *end() const { return last; }
    };

    /** Rebuild for (g, m, groups, ii); storage is reused. */
    void build(const Ddg &g, const Machine &m, const GroupSet &groups,
               int ii);

    const std::vector<Arc> &arcs() const { return arcs_; }

    /** In-arcs of group gi (lower bounds on its anchor). */
    Bounds
    inArcs(int gi) const
    {
        return rowOf(in_, inStart_, gi);
    }

    /** Out-arcs of group gi (upper bounds on its anchor). */
    Bounds
    outArcs(int gi) const
    {
        return rowOf(out_, outStart_, gi);
    }

  private:
    static Bounds
    rowOf(const std::vector<Bound> &list, const std::vector<int> &start,
          int gi)
    {
        const Bound *base = list.data();
        return {base + start[std::size_t(gi)],
                base + start[std::size_t(gi) + 1]};
    }

    std::vector<Arc> arcs_;
    /** Group gi's in-arcs are in_[inStart_[gi] .. inStart_[gi + 1]);
        likewise for out-arcs. */
    std::vector<int> inStart_, outStart_;
    std::vector<Bound> in_, out_;
};

/**
 * Per-node ASAP and height longest paths with edge weight
 * latency(src) - II * distance. Only meaningful when II >= RecMII
 * (no positive cycles); computed by Bellman-Ford-style relaxation.
 */
struct NodePriorities
{
    std::vector<long> asap;
    std::vector<long> height;

    /**
     * Recompute over a probe's arc table; the buffers are reused, not
     * grown. ASAP is relaxed in edge order and height in reverse edge
     * order, each until it stops changing: with no positive cycle both
     * reach the unique longest-path fixed point whatever the order,
     * and a sweep that follows the direction values flow in needs few
     * passes.
     */
    void compute(const ArcTable &arcs, int numNodes);
};

/**
 * Check dependence constraints between members of the same complex
 * group, whose relative offsets are fixed: every internal edge must be
 * satisfiable at the II the table was built for, and fused edges must
 * sit at their exact offset. A self edge is an internal edge of its
 * singleton group: it needs 0 >= latency - II * distance. Placement
 * enforces the edges between groups, so a complete schedule satisfies
 * every edge.
 */
bool groupsInternallyFeasible(const ArcTable &arcs, const GroupSet &groups);

} // namespace swp

#endif // SWP_SCHED_SCHED_UTIL_HH
