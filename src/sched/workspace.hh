/**
 * @file
 * Reusable scheduling workspace.
 *
 * A register-constrained pipeline run issues many scheduleAt(ii) probes
 * against the same scheduler object (the spill driver's II searches,
 * best-of-all's binary search), and the batch driver reuses one
 * scheduler per worker thread across all its jobs. SchedWorkspace holds
 * every scratch structure those probes need, so a probe clears them
 * (assign / reset / build, which recycle capacity) instead of
 * reallocating them:
 *
 *  - the MRT, whose placeGroupFirstFit places every group of both
 *    schedulers, the complex-group partition, and the node and group
 *    ASAP/height priority buffers (groupPriorities in sched_util.hh);
 *  - the arc table (ArcTable in sched_util.hh): one walk of the live
 *    edges per probe flattens each into its endpoints, their groups,
 *    its distance, fused delay and II-adjusted weight latency(src) -
 *    II * distance, plus per-group CSR lists of the arcs that cross the
 *    group's boundary, each with the bound it puts on the group's
 *    anchor. The priorities, the group-internal feasibility check, the
 *    HRMS group graph and the HRMS and IMS placement windows all read
 *    it instead of the Ddg (so does the acyclic fallback, on its own
 *    table); validateSchedule alone keeps reading the Ddg, so it stays
 *    an independent check of the result;
 *  - the HRMS group graph: successor and predecessor bit rows and the
 *    SCC decomposition with its Tarjan scratch;
 *  - the HRMS pre-ordering: the ordered set and the cone rows grown
 *    with it (and their search frontier); for graphs with several
 *    recurrences, the region each is ranked on (arcs of the arc table,
 *    local node ids, Bellman-Ford distances) and the zero-distance
 *    successor and reachability rows that order them; the cone and
 *    absorb vectors with their merge-sort buffer; and the Kahn state
 *    (absorb positions, in-set wait counts, ready and remaining rows);
 *  - the IMS placement state and eviction buffers.
 *
 * Once the buffers have grown to the largest loop seen, an HRMS probe
 * allocates only the Schedule it returns and validateSchedule's owner
 * table. The state carries no semantic information across probes:
 * every probe rebuilds its content from scratch, so schedules are
 * bit-identical to a freshly constructed scheduler's.
 */

#ifndef SWP_SCHED_WORKSPACE_HH
#define SWP_SCHED_WORKSPACE_HH

#include <utility>
#include <vector>

#include "ir/ddg.hh"
#include "ir/graph_algo.hh"
#include "sched/groups.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/sched_util.hh"
#include "support/bitmatrix.hh"

namespace swp
{

/** Per-scheduler scratch buffers; cleared, not reallocated, per probe. */
struct SchedWorkspace
{
    /** @name Shared by both schedulers */
    /// @{
    Mrt mrt;
    NodePriorities prio;
    /** Complex-group partition, rebuilt per probe on recycled storage. */
    GroupSet groups;
    /** The probe's live edges over that partition at the probe's II. */
    ArcTable arcs;
    /** Anchor-relative group ASAP / height (groupPriorities). */
    std::vector<long> gAsap, gHeight;
    /// @}

    /** @name HRMS condensed group graph */
    /// @{
    /** Group successors and predecessors as bit rows (lists come
        from the arc table's boundary arcs). */
    BitMatrix succBits, predBits;
    /** SCCs of the group graph, and their Tarjan scratch. */
    AdjScc scc;
    SccScratch sccScratch;
    /// @}

    /** @name HRMS pre-ordering */
    /// @{
    std::vector<int> order;
    BitRow orderedMask;
    /** Groups some ordered group reaches / that reach some ordered
        group, grown as groups are appended. */
    BitRow belowOrdered, aboveOrdered;
    /** The recurrence being ordered: members, and the groups its
        members reach / that reach its members. */
    BitRow setMask, belowSet, aboveSet;
    /** Groups added to one of those rows whose arcs are not yet
        followed. */
    BitRow frontier;
    /** Recurrences as (criticality, SCC index), in placement order. */
    std::vector<std::pair<long, int>> recurrenceRanks, rankBuf;
    /** The region one recurrence's RecMII is computed on: its arcs,
        the local id of each member node, and Bellman-Ford distances. */
    std::vector<RegionArc> regionArcs;
    std::vector<int> regionLocalId;
    std::vector<long> regionDist;
    /** Zero-distance group successors, and per SCC index the groups a
        recurrence's members reach along them: built only for graphs
        with several recurrences, which they order among each other. */
    BitMatrix zeroSucc, zeroReach;
    /** Absorb sets: the cone (or recurrence) being appended, and the
        backward paths of a recurrence; sortBuf is their merge buffer. */
    std::vector<int> cone, backCone, sortBuf;
    /** Absorb position per group (-1 outside the current set). */
    std::vector<int> absorbPos;
    /** In-set count per position of members that must precede it. */
    std::vector<int> waitCount;
    /** Positions whose count reached zero / not yet appended. */
    BitRow readyMask, remainMask;
    /// @}

    /** @name IMS placement loop */
    /// @{
    std::vector<char> placed;
    std::vector<long> lastTime;
    std::vector<NodeId> blockers;
    std::vector<int> evict;
    /// @}
};

} // namespace swp

#endif // SWP_SCHED_WORKSPACE_HH
