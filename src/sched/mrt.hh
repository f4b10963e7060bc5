/**
 * @file
 * Modulo reservation table (MRT).
 *
 * The MRT tracks, for every kernel row (cycle mod II) and every physical
 * functional unit, which operation occupies it. Pipelined units are
 * occupied for one row per operation; non-pipelined units (div/sqrt in
 * the paper's machines) are occupied for latency consecutive rows.
 * Placement also supports complex groups: several nodes at fixed offsets
 * placed and released atomically. placeGroupFirstFit is the one routine
 * that places a group: HRMS, IMS and the acyclic fallback (an MRT whose
 * II is its linear horizon) each scan their anchor window through it.
 * Members may compete for the same units, so it reserves them one by
 * one and rolls an anchor's reservations back when a member fails.
 *
 * Occupancy is stored twice, for different access patterns:
 *  - a per-(class, row) uint64_t busy mask (bit u = unit u busy), so the
 *    hot canPlace/findUnit path is an OR over the op's rows, a mask
 *    test, and count-trailing-zeros — no occupant scan. One word per
 *    row caps machines at 64 units per unit class; reset() rejects
 *    wider machines loudly (the paper's widest configuration has 2);
 *  - an occupant node per (class, unit, row), the bookkeeping side used
 *    by remove()'s debug check and conflicts()'s blocker reporting.
 *
 * The table is designed for reuse across scheduling probes: reset()
 * rebinds it to a (machine, II) pair while recycling both stores, so a
 * scheduler-owned Mrt allocates only when a probe needs more rows than
 * any probe before it.
 */

#ifndef SWP_SCHED_MRT_HH
#define SWP_SCHED_MRT_HH

#include <cstdint>
#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "sched/groups.hh"
#include "sched/schedule.hh"

namespace swp
{

/** Modulo reservation table for one (graph, machine, II) triple. */
class Mrt
{
  public:
    /** An empty table; reset() must run before any other member. */
    Mrt() = default;

    Mrt(const Machine &m, int ii) { reset(m, ii); }

    /** Rebind to (machine, II) with every slot free; storage is reused. */
    void reset(const Machine &m, int ii);

    int ii() const { return ii_; }

    /**
     * Try to find a free unit for op at absolute time t.
     * @return unit index within the class, or -1 when fully busy.
     */
    int findUnit(Opcode op, int t) const;

    /** True if the op can be placed at time t. */
    bool canPlace(Opcode op, int t) const { return findUnit(op, t) >= 0; }

    /**
     * Reserve a unit for node n (opcode op) at time t.
     * @return the unit index used, or -1 when no unit is free.
     */
    int place(Opcode op, int t, NodeId n);

    /** Release the reservation of node n (opcode op) at time t, unit u. */
    void remove(Opcode op, int t, NodeId n, int u);

    /**
     * Atomically place a complex group anchored at t0, recording each
     * member's time and unit into the schedule. The one-anchor scan of
     * placeGroupFirstFit; IMS's forced placement is its only scheduler
     * caller.
     * @return false (and leave the table untouched) if any member fails.
     */
    bool
    placeGroup(const Ddg &g, const ComplexGroup &grp, int t0,
               Schedule &sched)
    {
        return placeGroupFirstFit(g, grp, t0, t0, sched);
    }

    /**
     * Place a complex group at the first anchor of first, first + 1,
     * ..., last (first, first - 1, ..., last when last < first) where
     * placeGroup would succeed, with the units it would choose there.
     * The scan steps each member's kernel row along with the anchor
     * instead of recomputing it, and a singleton group is one
     * reservation per anchor tried. Every member time of every anchor
     * in the range must be an int.
     * @return false (and leave the table untouched) if no anchor fits.
     */
    bool placeGroupFirstFit(const Ddg &g, const ComplexGroup &grp,
                            int first, int last, Schedule &sched);

    /** Release a previously placed group using the schedule's units. */
    void removeGroup(const Ddg &g, const ComplexGroup &grp,
                     const Schedule &sched);

    /**
     * Occupants that block op at time t (each at most once), appended
     * to `out` after clearing it. Used by iterative modulo scheduling
     * to decide what to evict; the out-parameter form lets the hot
     * caller reuse one buffer across every eviction query. `out` stays
     * empty when the op's occupancy exceeds II (findUnit can never
     * place it, so no eviction helps), mirroring findUnit's rejection.
     */
    void conflicts(Opcode op, int t, std::vector<NodeId> &out) const;

    /** Allocating convenience form of conflicts(). */
    std::vector<NodeId>
    conflicts(Opcode op, int t) const
    {
        std::vector<NodeId> out;
        conflicts(op, t, out);
        return out;
    }

  private:
    /** Where an opcode's reservations live, cached per opcode by
        reset() so a placement reads one record. */
    struct OpSlots
    {
        int occ;        ///< Rows occupied (machine occupancy).
        int maskBase;   ///< First busy_ row of its class.
        int cellBase;   ///< First occupant_ cell of its class.
        std::uint64_t units;  ///< One bit per unit of its class.
    };

    /** OR of the busy masks over occ rows from `row` on (wrapping). */
    std::uint64_t busyOver(const OpSlots &o, int row) const;
    /** Lowest unit free over o's occupancy from `row`, or -1 (also
        when the occupancy exceeds II). */
    int findUnitAtRow(const OpSlots &o, int row) const;
    /** Reserve / release unit u for node n over o's rows from `row`. */
    void reserve(const OpSlots &o, int row, int u, NodeId n);
    void release(const OpSlots &o, int row, int u, NodeId n);
    /** findUnitAtRow, then reserve the unit found; -1 if none. */
    int placeAtRow(const OpSlots &o, int row, NodeId n);
    const OpSlots &slots(Opcode op) const { return slots_[int(op)]; }
    /** The row after / before `row`, wrapping at II. */
    int nextRow(int row) const { return row + 1 == ii_ ? 0 : row + 1; }
    int prevRow(int row) const { return row == 0 ? ii_ - 1 : row - 1; }

    int ii_ = 0;
    OpSlots slots_[numOpcodes] = {};
    /** Occupant node per (class, unit, row); -1 when free. */
    std::vector<NodeId> occupant_;
    /** Busy units per (class, row); bit u set = unit u occupied. */
    std::vector<std::uint64_t> busy_;
    /** Unit and kernel row per member while a group placement is in
        flight. */
    std::vector<int> unitScratch_, rowScratch_;
};

} // namespace swp

#endif // SWP_SCHED_MRT_HH
