#include "sched/mrt.hh"

#include <algorithm>

#include "support/bitmatrix.hh"
#include "support/diag.hh"

namespace swp
{

void
Mrt::reset(const Machine &m, int ii)
{
    SWP_ASSERT(ii >= 1, "MRT needs a positive II");
    ii_ = ii;
    // Occupant cells are laid out class by class, then unit by unit,
    // then row by row; busy masks class by class, then row by row.
    int cells = 0;
    for (int cls = 0; cls < m.numClasses(); ++cls) {
        const int units = m.unitsInClass(cls);
        SWP_ASSERT(units <= 64,
                   "MRT busy masks hold at most 64 units per class");
        for (int op = 0; op < numOpcodes; ++op) {
            if (m.classOf(Opcode(op)) == cls) {
                slots_[op] = {m.occupancy(Opcode(op)), cls * ii, cells,
                              lowBitsMask(units)};
            }
        }
        cells += units * ii;
    }
    occupant_.assign(std::size_t(cells), invalidNode);
    busy_.assign(std::size_t(m.numClasses() * ii), 0);
}

std::uint64_t
Mrt::busyOver(const OpSlots &o, int row) const
{
    std::uint64_t mask = 0;
    for (int c = 0; c < o.occ; ++c) {
        mask |= busy_[std::size_t(o.maskBase + row)];
        row = nextRow(row);
    }
    return mask;
}

int
Mrt::findUnitAtRow(const OpSlots &o, int row) const
{
    if (o.occ > ii_)
        return -1;
    const std::uint64_t free = ~busyOver(o, row) & o.units;
    return free ? countTrailingZeros(free) : -1;
}

int
Mrt::findUnit(Opcode op, int t) const
{
    return findUnitAtRow(slots(op), Schedule::floorMod(t, ii_));
}

void
Mrt::reserve(const OpSlots &o, int row, int u, NodeId n)
{
    const std::uint64_t bit = std::uint64_t(1) << u;
    for (int c = 0; c < o.occ; ++c) {
        busy_[std::size_t(o.maskBase + row)] |= bit;
        occupant_[std::size_t(o.cellBase + u * ii_ + row)] = n;
        row = nextRow(row);
    }
}

void
Mrt::release(const OpSlots &o, int row, int u, NodeId n)
{
    const std::uint64_t bit = std::uint64_t(1) << u;
    for (int c = 0; c < o.occ; ++c) {
        const int idx = o.cellBase + u * ii_ + row;
        SWP_ASSERT(occupant_[std::size_t(idx)] == n,
                   "MRT remove of non-occupant node ", n);
        occupant_[std::size_t(idx)] = invalidNode;
        busy_[std::size_t(o.maskBase + row)] &= ~bit;
        row = nextRow(row);
    }
}

int
Mrt::placeAtRow(const OpSlots &o, int row, NodeId n)
{
    const int u = findUnitAtRow(o, row);
    if (u >= 0)
        reserve(o, row, u, n);
    return u;
}

int
Mrt::place(Opcode op, int t, NodeId n)
{
    return placeAtRow(slots(op), Schedule::floorMod(t, ii_), n);
}

void
Mrt::remove(Opcode op, int t, NodeId n, int u)
{
    release(slots(op), Schedule::floorMod(t, ii_), u, n);
}

bool
Mrt::placeGroupFirstFit(const Ddg &g, const ComplexGroup &grp, int first,
                        int last, Schedule &sched)
{
    const int step = last < first ? -1 : 1;
    if (grp.singleton()) {
        // One reservation attempt per anchor; nothing to roll back.
        const NodeId n = grp.members[0];
        const OpSlots &o = slots(g.node(n).op);
        int row = Schedule::floorMod(first, ii_);
        for (int t = first;; t += step) {
            const int u = placeAtRow(o, row, n);
            if (u >= 0) {
                sched.set(n, t, u);
                return true;
            }
            if (t == last)
                return false;
            row = step > 0 ? nextRow(row) : prevRow(row);
        }
    }

    const std::size_t k = grp.members.size();
    unitScratch_.resize(k);
    rowScratch_.resize(k);
    for (std::size_t i = 0; i < k; ++i)
        rowScratch_[i] = Schedule::floorMod(first + grp.offsets[i], ii_);
    for (int t = first;; t += step) {
        std::size_t i = 0;
        for (; i < k; ++i) {
            const NodeId n = grp.members[i];
            unitScratch_[i] =
                placeAtRow(slots(g.node(n).op), rowScratch_[i], n);
            if (unitScratch_[i] < 0)
                break;
        }
        if (i == k) {
            for (std::size_t j = 0; j < k; ++j)
                sched.set(grp.members[j], t + grp.offsets[j],
                          unitScratch_[j]);
            return true;
        }
        // Roll back the members placed at this anchor.
        for (std::size_t j = 0; j < i; ++j) {
            release(slots(g.node(grp.members[j]).op), rowScratch_[j],
                    unitScratch_[j], grp.members[j]);
        }
        if (t == last)
            return false;
        for (int &row : rowScratch_)
            row = step > 0 ? nextRow(row) : prevRow(row);
    }
}

void
Mrt::removeGroup(const Ddg &g, const ComplexGroup &grp,
                 const Schedule &sched)
{
    for (NodeId n : grp.members) {
        remove(g.node(n).op, sched.time(n), n, sched.unit(n));
    }
}

void
Mrt::conflicts(Opcode op, int t, std::vector<NodeId> &out) const
{
    out.clear();
    const OpSlots &o = slots(op);
    if (o.occ > ii_) {
        // findUnit can never place this op at this II, no matter what
        // is evicted: reporting "blockers" here would send IMS chasing
        // nodes whose removal cannot help. Consistently report none.
        return;
    }
    const int units = popCount(o.units);
    for (int u = 0; u < units; ++u) {
        int row = Schedule::floorMod(t, ii_);
        for (int c = 0; c < o.occ; ++c) {
            const NodeId n =
                occupant_[std::size_t(o.cellBase + u * ii_ + row)];
            if (n != invalidNode &&
                std::find(out.begin(), out.end(), n) == out.end()) {
                out.push_back(n);
            }
            row = nextRow(row);
        }
    }
}

} // namespace swp
