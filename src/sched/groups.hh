/**
 * @file
 * Complex-operation groups (Section 4.3).
 *
 * Operations connected by non-spillable edges (spill loads/stores and
 * their consumers/producers) must be scheduled simultaneously as a single
 * "complex operation": the consumer is placed exactly latency(producer)
 * cycles after the producer. This prevents a register-insensitive
 * scheduler from re-growing the lifetime that was just spilled, which is
 * what guarantees convergence of the iterative spilling process.
 */

#ifndef SWP_SCHED_GROUPS_HH
#define SWP_SCHED_GROUPS_HH

#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"

namespace swp
{

/**
 * Exact issue distance a fused edge enforces: its explicit fusedDelay,
 * or the producer's latency when unset.
 */
int fusedDelayOf(const Ddg &g, const Machine &m, const Edge &edge);

/** One schedulable unit: a set of nodes with fixed relative offsets. */
struct ComplexGroup
{
    /** Members in increasing offset order (ties broken by node id). */
    std::vector<NodeId> members;
    /** Cycle offset of each member relative to the group anchor. */
    std::vector<int> offsets;

    bool singleton() const { return members.size() == 1; }
};

/**
 * Partition of the graph into complex groups.
 *
 * Nodes not touched by non-spillable edges form singleton groups.
 * Offsets are derived from fused-edge latencies; a consistency failure
 * (two fused paths implying different offsets, or a fused cycle) is a
 * spiller bug and panics.
 *
 * Cost: reset() is O(nodes + edges) plus the member sorts. A graph
 * with no live fused edge (every loop before spilling) gets the
 * identity partition directly: node v is group v, at offset 0. The
 * offset walk follows per-node lists of incident fused edges, so each
 * fused edge is visited from its two endpoints only. Every probe of a
 * spilled graph rebuilds the set; a walk that rescanned all fused edges
 * for each visited member, O(groups x fused edges x members), would be
 * the largest self cost of a register sweep over spilled loops.
 */
class GroupSet
{
  public:
    /** An empty set; reset() must run before any other member. */
    GroupSet() = default;

    GroupSet(const Ddg &g, const Machine &m) { reset(g, m); }

    /**
     * Rebind to a (graph, machine) pair. All storage — the groups,
     * their member/offset vectors, and the union-find, incidence-list
     * and BFS scratch — is recycled, so a workspace-resident GroupSet
     * stops allocating once it has seen the largest loop of a batch.
     */
    void reset(const Ddg &g, const Machine &m);

    int numGroups() const { return numGroups_; }
    const ComplexGroup &group(int gi) const
    {
        return groups_[std::size_t(gi)];
    }

    /** Group index containing a node. */
    int groupOf(NodeId n) const { return groupOf_[std::size_t(n)]; }

    /** Offset of a node inside its group. */
    int offsetOf(NodeId n) const { return offsetOf_[std::size_t(n)]; }

  private:
    /** First numGroups_ entries are live; the tail keeps its capacity. */
    std::vector<ComplexGroup> groups_;
    int numGroups_ = 0;
    std::vector<int> groupOf_;
    std::vector<int> offsetOf_;
    /** @name reset() scratch */
    /// @{
    std::vector<int> parent_, rootGroup_;
    std::vector<char> known_;
    std::vector<EdgeId> fused_;
    /** Incident fused edges of node v: incEdges_[incStart_[v] ..
        incStart_[v + 1]), in edge-id order. */
    std::vector<int> incStart_;
    std::vector<EdgeId> incEdges_;
    std::vector<NodeId> queue_;
    /// @}
};

} // namespace swp

#endif // SWP_SCHED_GROUPS_HH
