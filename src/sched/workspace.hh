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
 *  - the MRT, the complex-group partition and the ASAP/height priority
 *    buffers;
 *  - the HRMS group graph: deduplicated arcs, CSR successor and
 *    predecessor rows, the SCC decomposition with its Tarjan scratch,
 *    and the bit-packed reachability matrices;
 *  - the HRMS pre-ordering: the ordered set and the cone rows grown
 *    with it, the recurrence ranks, member lists and RecMII storage,
 *    the cone and absorb vectors with their merge-sort buffer, and the
 *    Kahn state (absorb positions, in-set wait counts, ready and
 *    remaining rows);
 *  - the IMS eviction buffers.
 *
 * Once the buffers have grown to the largest loop seen, an HRMS probe
 * allocates only the Schedule it returns and validateSchedule's owner
 * table. The state carries no semantic information across probes:
 * every probe rebuilds its content from scratch, so schedules are
 * bit-identical to a freshly constructed scheduler's. That includes
 * the RecurrenceScratch the ordering ranks recurrences in; it recycles
 * storage, never an answer.
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
    /** Anchor-relative group ASAP / height. */
    std::vector<long> gAsap, gHeight;
    /// @}

    /** @name HRMS condensed group graph */
    /// @{
    /** Deduplicated group arcs (from, to) in edge-id order: over all
        distances, and over zero-distance edges only. */
    std::vector<std::pair<int, int>> arcs, arcs0;
    /** Successors and predecessors over arcs, successors over arcs0. */
    CsrAdj succ, pred, succ0;
    /** Group-pair dedup while collecting the arcs (all distances /
        zero-distance only). */
    BitMatrix edgeSeen, edgeSeen0;
    /** SCCs of succ / succ0, and their Tarjan scratch. succ0, scc0 and
        reach0 serve only the ordering of recurrences, so they are
        built only for graphs that have one. */
    AdjScc scc, scc0;
    SccScratch sccScratch;
    /** Transitive reachability over succ / its transpose / succ0. */
    BitMatrix reach, reachT, reach0;
    /// @}

    /** @name HRMS pre-ordering */
    /// @{
    std::vector<int> order;
    BitRow orderedMask;
    /** Groups some ordered group reaches / that reach some ordered
        group: the OR of the reach / reachT rows of the ordered set,
        grown as groups are appended. */
    BitRow belowOrdered, aboveOrdered;
    /** The recurrence being ordered: members, and the groups its
        members reach / that reach its members. */
    BitRow setMask, belowSet, aboveSet;
    /** Recurrences as (criticality, SCC index), in placement order. */
    std::vector<std::pair<long, int>> recurrenceRanks, rankBuf;
    /** Member nodes of one recurrence, and the region and
        Bellman-Ford storage its RecMII is computed in. */
    std::vector<NodeId> recurrenceNodes;
    RecurrenceScratch recurrenceScratch;
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
