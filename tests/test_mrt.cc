/**
 * @file
 * Modulo reservation table tests: pipelined and non-pipelined
 * occupancy, wraparound, group placement and eviction support.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "sched/groups.hh"
#include "sched/mrt.hh"
#include "support/rng.hh"

namespace swp
{
namespace
{

/**
 * Naive reference reservation table: the pre-bitset implementation,
 * answering every query by scanning an occupant vector. The bitset Mrt
 * must agree with it on every operation, including the unit index
 * chosen (both take the lowest free unit).
 */
class RefMrt
{
  public:
    RefMrt(const Machine &m, int ii) : m_(m), ii_(ii)
    {
        int base = 0;
        for (int cls = 0; cls < m.numClasses(); ++cls) {
            classBase_.push_back(base);
            base += m.unitsInClass(cls) * ii;
        }
        occupant_.assign(std::size_t(base), invalidNode);
    }

    int
    findUnit(Opcode op, int t) const
    {
        const int cls = m_.classOf(op);
        const int occ = m_.occupancy(op);
        if (occ > ii_)
            return -1;
        for (int u = 0; u < m_.unitsInClass(cls); ++u) {
            bool free = true;
            for (int c = 0; c < occ && free; ++c) {
                const int row = Schedule::floorMod(t + c, ii_);
                free = occupant_[std::size_t(cell(cls, u, row))] ==
                       invalidNode;
            }
            if (free)
                return u;
        }
        return -1;
    }

    int
    place(Opcode op, int t, NodeId n)
    {
        const int u = findUnit(op, t);
        if (u < 0)
            return -1;
        const int occ = m_.occupancy(op);
        for (int c = 0; c < occ; ++c) {
            const int row = Schedule::floorMod(t + c, ii_);
            occupant_[std::size_t(cell(m_.classOf(op), u, row))] = n;
        }
        return u;
    }

    void
    remove(Opcode op, int t, NodeId n, int u)
    {
        const int occ = m_.occupancy(op);
        for (int c = 0; c < occ; ++c) {
            const int row = Schedule::floorMod(t + c, ii_);
            const int idx = cell(m_.classOf(op), u, row);
            ASSERT_EQ(occupant_[std::size_t(idx)], n);
            occupant_[std::size_t(idx)] = invalidNode;
        }
    }

    std::vector<NodeId>
    conflicts(Opcode op, int t) const
    {
        const int occ = m_.occupancy(op);
        std::vector<NodeId> blockers;
        if (occ > ii_)
            return blockers;
        const int cls = m_.classOf(op);
        for (int u = 0; u < m_.unitsInClass(cls); ++u) {
            for (int c = 0; c < occ; ++c) {
                const int row = Schedule::floorMod(t + c, ii_);
                const NodeId n = occupant_[std::size_t(cell(cls, u, row))];
                if (n != invalidNode &&
                    std::find(blockers.begin(), blockers.end(), n) ==
                        blockers.end()) {
                    blockers.push_back(n);
                }
            }
        }
        return blockers;
    }

  private:
    int
    cell(int cls, int unit, int row) const
    {
        return classBase_[std::size_t(cls)] + unit * ii_ + row;
    }

    const Machine &m_;
    int ii_;
    std::vector<NodeId> occupant_;
    std::vector<int> classBase_;
};

/**
 * Add a node of opcode op to g and place it at time t through the
 * scheduler's entry point: placeGroupFirstFit on the node's singleton
 * group over the one-anchor range [t, t]. Every call's node has its own
 * id (g.numNodes() - 1 afterwards), so the occupants conflicts()
 * reports tell placements apart.
 * @return the unit taken, or -1 when none is free.
 */
int
placeNew(Mrt &mrt, Ddg &g, Opcode op, int t)
{
    const NodeId n = g.addNode(op);
    Schedule sched(mrt.ii(), g.numNodes());
    if (!mrt.placeGroupFirstFit(g, ComplexGroup{{n}, {0}}, t, t, sched))
        return -1;
    return sched.unit(n);
}

/** The unit an op placed at time t would take, or -1: a placement on a
    copy of the table. */
int
unitFor(const Mrt &mrt, Opcode op, int t)
{
    Mrt copy(mrt);
    Ddg probe;
    return placeNew(copy, probe, op, t);
}

/** The occupants blocking op at time t, in the order conflicts()
    reports them. */
std::vector<NodeId>
blockers(const Mrt &mrt, Opcode op, int t)
{
    std::vector<NodeId> out;
    mrt.conflicts(op, t, out);
    return out;
}

/** The opcode mix of the differential test: pipelined single-row ops
    plus the non-pipelined multi-row divide and square root. */
constexpr Opcode kDiffOps[] = {Opcode::Load, Opcode::Store, Opcode::Add,
                               Opcode::Mul,  Opcode::Div,   Opcode::Sqrt,
                               Opcode::Copy};

/** Compare every query both tables answer, over a window of times. */
void
expectTablesAgree(const Mrt &mrt, const RefMrt &ref, int ii)
{
    for (const Opcode op : kDiffOps) {
        for (int t = -ii - 3; t <= 2 * ii + 3; ++t) {
            ASSERT_EQ(unitFor(mrt, op, t), ref.findUnit(op, t))
                << opcodeName(op) << " at t=" << t;
            ASSERT_EQ(blockers(mrt, op, t), ref.conflicts(op, t))
                << opcodeName(op) << " at t=" << t;
        }
    }
}

TEST(Mrt, DifferentialAgainstNaiveReference)
{
    const Machine machines[] = {Machine::p1l4(), Machine::p2l4(),
                                Machine::universal("u3", 3, 2)};
    struct Placement
    {
        Opcode op;
        int t;
        NodeId n;
        int u;
    };

    for (const Machine &m : machines) {
        int totalUnits = 0;
        for (int c = 0; c < m.numClasses(); ++c)
            totalUnits += m.unitsInClass(c);
        Rng rng(0x5eedu + std::uint64_t(totalUnits));
        for (int trial = 0; trial < 6; ++trial) {
            // IIs from 1 (everything wraps onto one row) up past the
            // non-pipelined occupancies (Div 17, Sqrt 30 fit partially).
            const int ii = trial == 0 ? 1 : rng.range(2, 40);
            Mrt mrt(m, ii);
            RefMrt ref(m, ii);
            Ddg ops;
            std::vector<Placement> live;

            for (int step = 0; step < 160; ++step) {
                const bool doPlace =
                    live.empty() || rng.chance(0.6);
                if (doPlace) {
                    const Opcode op = kDiffOps[std::size_t(
                        rng.range(0, int(std::size(kDiffOps)) - 1))];
                    const int t = rng.range(-30, 60);
                    const int u1 = placeNew(mrt, ops, op, t);
                    const NodeId n = ops.numNodes() - 1;
                    const int u2 = ref.place(op, t, n);
                    ASSERT_EQ(u1, u2)
                        << m.name() << " ii=" << ii << " place "
                        << opcodeName(op) << " t=" << t;
                    if (u1 >= 0)
                        live.push_back({op, t, n, u1});
                } else {
                    const std::size_t pick = std::size_t(
                        rng.range(0, int(live.size()) - 1));
                    const Placement p = live[pick];
                    live.erase(live.begin() + long(pick));
                    mrt.remove(p.op, p.t, p.n, p.u);
                    ref.remove(p.op, p.t, p.n, p.u);
                }
                if (step % 20 == 0)
                    expectTablesAgree(mrt, ref, ii);
            }
            expectTablesAgree(mrt, ref, ii);
        }
    }
}

TEST(Mrt, DifferentialGroupPlacement)
{
    // Fused load->add groups over one mem unit: group placement must
    // agree with placing the members one by one on the reference table,
    // including the all-or-nothing failure case.
    DdgBuilder b("grp");
    const NodeId l1 = b.load("l1");
    const NodeId a1 = b.add("a1");
    const NodeId st = b.store("st");
    b.graph().addEdge(l1, a1, DepKind::RegFlow, 0, true);
    b.flow(a1, st);
    // Background singletons are appended to g after the partition.
    Ddg g = b.take();
    const Machine m = Machine::p1l4();
    const GroupSet groups(g, m);
    const ComplexGroup &grp = groups.group(groups.groupOf(l1));
    ASSERT_EQ(grp.members.size(), 2u);
    const int groupNodes = g.numNodes();

    Rng rng(99);
    for (int trial = 0; trial < 8; ++trial) {
        const int ii = rng.range(1, 6);
        Mrt mrt(m, ii);
        RefMrt ref(m, ii);
        Schedule sched(ii, groupNodes);
        bool placed = false;
        int placedT0 = 0;
        for (int step = 0; step < 60; ++step) {
            // Background noise so the group competes with singletons.
            if (rng.chance(0.3)) {
                const Opcode op = rng.chance(0.5) ? Opcode::Load
                                                  : Opcode::Add;
                const int t = rng.range(-5, 10);
                const int u = placeNew(mrt, g, op, t);
                ASSERT_EQ(u, ref.place(op, t, g.numNodes() - 1));
            }
            if (!placed) {
                const int t0 = rng.range(-10, 20);
                // Reference: member-by-member with rollback semantics
                // (the scratch copy is only probed, never kept).
                const bool refCan = [&] {
                    RefMrt scratch(ref);
                    for (std::size_t i = 0; i < grp.members.size(); ++i) {
                        if (scratch.place(g.node(grp.members[i]).op,
                                          t0 + grp.offsets[i],
                                          grp.members[i]) < 0) {
                            return false;
                        }
                    }
                    return true;
                }();
                // Group placement on a copy must agree, and a failed one
                // must leave the copy as it was.
                Mrt copy(mrt);
                Schedule probe(ii, groupNodes);
                ASSERT_EQ(copy.placeGroupFirstFit(g, grp, t0, t0, probe),
                          refCan)
                    << "ii=" << ii << " t0=" << t0;
                if (!refCan)
                    expectTablesAgree(copy, ref, ii);
                if (refCan && rng.chance(0.7)) {
                    ASSERT_TRUE(
                        mrt.placeGroupFirstFit(g, grp, t0, t0, sched));
                    for (std::size_t i = 0; i < grp.members.size(); ++i) {
                        ASSERT_EQ(ref.place(g.node(grp.members[i]).op,
                                            t0 + grp.offsets[i],
                                            grp.members[i]),
                                  sched.unit(grp.members[i]));
                    }
                    placed = true;
                    placedT0 = t0;
                }
            } else if (rng.chance(0.5)) {
                mrt.removeGroup(g, grp, sched);
                for (std::size_t i = 0; i < grp.members.size(); ++i) {
                    ref.remove(g.node(grp.members[i]).op,
                               placedT0 + grp.offsets[i], grp.members[i],
                               sched.unit(grp.members[i]));
                }
                placed = false;
            }
            expectTablesAgree(mrt, ref, ii);
        }
    }
}

TEST(Mrt, FirstFitScanMatchesAnchorByAnchorPlacement)
{
    // placeGroupFirstFit steps kernel rows along with the anchor, and
    // places a singleton with one reservation per anchor. It must pick
    // the anchor, and reserve the units, that trying each anchor of the
    // range in turn on the reference table picks: scanning up and
    // down, across the wrap between row II - 1 and row 0, and for
    // non-pipelined members whose occupancy spans several rows (or
    // exceeds II), alone or inside a fused group.
    DdgBuilder b("scan");
    const NodeId div = b.div("div");
    const NodeId ld = b.load("ld");
    const NodeId l1 = b.load("l1");
    const NodeId a1 = b.add("a1");
    const NodeId d1 = b.div("d1");
    const NodeId sq = b.sqrt("sq");
    const NodeId st = b.store("st");
    b.graph().addEdge(l1, a1, DepKind::RegFlow, 0, true);
    b.graph().addEdge(a1, d1, DepKind::RegFlow, 0, true);
    b.flow(d1, st);
    b.flow(sq, st);
    b.flow(div, st);
    b.flow(ld, st);
    const Ddg loop = b.take();
    constexpr Opcode pipelined[] = {Opcode::Load, Opcode::Store,
                                    Opcode::Add, Opcode::Mul, Opcode::Copy};
    const Machine machines[] = {Machine::p1l4(), Machine::p2l4()};

    for (const Machine &m : machines) {
        const GroupSet groups(loop, m);
        ASSERT_EQ(groups.group(groups.groupOf(l1)).members.size(), 3u);
        Rng rng(0x5ca9u + std::uint64_t(m.unitsInClass(0)));
        int singletons = 0, fused = 0, nonPipelined = 0, wrapped = 0;
        for (int trial = 0; trial < 120; ++trial) {
            const int ii = rng.range(1, 40);
            Mrt mrt(m, ii);
            RefMrt ref(m, ii);
            Schedule sched(ii, loop.numNodes());
            // Background singletons are appended to g, past the loop's
            // nodes and out of the partition.
            Ddg g = loop;
            auto busy = [&](Opcode op, int t) {
                const int u = placeNew(mrt, g, op, t);
                ASSERT_EQ(u, ref.place(op, t, g.numNodes() - 1));
            };
            for (int k = rng.range(0, 2 * ii); k > 0; --k)
                busy(pipelined[rng.range(0, 4)], rng.range(-30, 60));
            // Groups in a rotated order, so that each meets the divide
            // unit free in some trials.
            const int start = rng.range(0, groups.numGroups() - 1);
            for (int k = 0; k < groups.numGroups(); ++k) {
                const int gi = (start + k) % groups.numGroups();
                const ComplexGroup &grp = groups.group(gi);
                const bool up = rng.chance(0.5);
                int first = rng.range(-50, 50);
                if (rng.chance(0.5)) {
                    // Start on the last row scanning up (the first row
                    // scanning down) with that anchor's first member
                    // blocked, so the scan must cross the wrap.
                    first = ii * rng.range(-2, 2) + (up ? ii - 1 : 0);
                    const Opcode op = g.node(grp.members[0]).op;
                    if (m.occupancy(op) == 1) {
                        for (int u = 0; u < m.unitsInClass(m.classOf(op));
                             ++u) {
                            busy(op, first);
                        }
                    }
                }
                const int span = rng.range(0, ii + 2);
                const int last = up ? first + span : first - span;
                // Reference: each anchor in scan order, all members or
                // none, on a scratch copy of the reference table.
                int want = INT32_MIN;
                for (int t = first;; t += up ? 1 : -1) {
                    RefMrt scratch(ref);
                    bool fits = true;
                    for (std::size_t i = 0; i < grp.members.size() && fits;
                         ++i) {
                        fits = scratch.place(g.node(grp.members[i]).op,
                                             t + grp.offsets[i],
                                             grp.members[i]) >= 0;
                    }
                    if (fits) {
                        want = t;
                        break;
                    }
                    if (t == last)
                        break;
                }
                const bool got =
                    mrt.placeGroupFirstFit(g, grp, first, last, sched);
                ASSERT_EQ(got, want != INT32_MIN)
                    << m.name() << " ii=" << ii << " group " << gi;
                if (got) {
                    for (std::size_t i = 0; i < grp.members.size(); ++i) {
                        const NodeId v = grp.members[i];
                        ASSERT_EQ(sched.time(v), want + grp.offsets[i]);
                        ASSERT_EQ(ref.place(g.node(v).op, sched.time(v), v),
                                  sched.unit(v))
                            << m.name() << " ii=" << ii << " node " << v;
                        nonPipelined += m.occupancy(g.node(v).op) > 1;
                    }
                    wrapped += Schedule::floorDiv(first, ii) !=
                               Schedule::floorDiv(want, ii);
                    (grp.singleton() ? singletons : fused) += 1;
                }
                expectTablesAgree(mrt, ref, ii);
            }
        }
        EXPECT_GT(singletons, 200) << m.name();
        EXPECT_GT(fused, 20) << m.name();
        EXPECT_GT(nonPipelined, 50) << m.name();
        EXPECT_GT(wrapped, 100) << m.name();
    }
}

TEST(Mrt, FillsAllUnitsOfARow)
{
    const Machine m = Machine::p2l4();
    Mrt mrt(m, 2);
    Ddg ops;
    // Two loads in row 0: both units; a third must fail.
    EXPECT_GE(placeNew(mrt, ops, Opcode::Load, 0), 0);
    EXPECT_GE(placeNew(mrt, ops, Opcode::Load, 2), 0);  // Row 0 (t=2).
    EXPECT_EQ(placeNew(mrt, ops, Opcode::Load, 4), -1);
    // Row 1 still free.
    EXPECT_GE(placeNew(mrt, ops, Opcode::Load, 1), 0);
}

TEST(Mrt, RemoveFreesTheSlot)
{
    const Machine m = Machine::p1l4();
    Mrt mrt(m, 3);
    Ddg ops;
    const int u = placeNew(mrt, ops, Opcode::Add, 4);
    ASSERT_GE(u, 0);
    EXPECT_EQ(unitFor(mrt, Opcode::Add, 1), -1);  // Same row (1 = 4 mod 3).
    mrt.remove(Opcode::Add, 4, 0, u);
    EXPECT_GE(unitFor(mrt, Opcode::Add, 1), 0);
}

TEST(Mrt, NonPipelinedOccupiesConsecutiveRows)
{
    const Machine m = Machine::p1l4();
    Mrt mrt(m, 20);
    Ddg ops;
    // A divide occupies rows 0..16 of the single div/sqrt unit.
    ASSERT_GE(placeNew(mrt, ops, Opcode::Div, 0), 0);
    EXPECT_EQ(unitFor(mrt, Opcode::Div, 16), -1);
    EXPECT_EQ(unitFor(mrt, Opcode::Sqrt, 5), -1);
    // Occupancy 17 <= II=20 leaves rows 17..19 free, but another
    // 17-cycle divide cannot fit into 3 free rows.
    EXPECT_EQ(unitFor(mrt, Opcode::Div, 17), -1);
}

TEST(Mrt, OccupancyLongerThanIiIsRejected)
{
    const Machine m = Machine::p1l4();
    Mrt mrt(m, 10);
    EXPECT_EQ(unitFor(mrt, Opcode::Div, 0), -1);  // 17 > II.
}

TEST(Mrt, NegativeTimesWrapCorrectly)
{
    const Machine m = Machine::p1l4();
    Mrt mrt(m, 4);
    Ddg ops;
    ASSERT_GE(placeNew(mrt, ops, Opcode::Add, -3), 0);  // Row 1.
    EXPECT_EQ(unitFor(mrt, Opcode::Add, 1), -1);
    EXPECT_EQ(unitFor(mrt, Opcode::Add, 5), -1);
    EXPECT_GE(unitFor(mrt, Opcode::Add, 0), 0);
}

TEST(Mrt, ConflictsReportsBlockers)
{
    const Machine m = Machine::p1l4();
    Mrt mrt(m, 2);
    Ddg ops;
    ops.addNode(Opcode::Nop);
    ASSERT_GE(placeNew(mrt, ops, Opcode::Add, 0), 0);  // Node 1.
    const auto found = blockers(mrt, Opcode::Add, 2);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], 1);
    EXPECT_TRUE(blockers(mrt, Opcode::Add, 1).empty());
}

TEST(Mrt, ConflictsEmptyWhenOccupancyExceedsIi)
{
    // Regression: conflicts() used to clamp the occupancy to II and
    // report "blockers" for an op that can never be placed (occupancy
    // > II), sending IMS eviction after nodes whose removal cannot
    // help. It must report none, mirroring placement's rejection.
    const Machine m = Machine::p1l4();
    Mrt mrt(m, 20);
    Ddg ops;
    // A divide (occupancy 17 <= 20) occupies the div/sqrt unit.
    ASSERT_GE(placeNew(mrt, ops, Opcode::Div, 0), 0);
    // A sqrt (occupancy 30 > 20) can never be placed at this II...
    EXPECT_EQ(unitFor(mrt, Opcode::Sqrt, 0), -1);
    // ...so evicting the divide cannot help: no blockers.
    EXPECT_TRUE(blockers(mrt, Opcode::Sqrt, 0).empty());
    // The divide itself still conflicts normally with another divide.
    const auto found = blockers(mrt, Opcode::Div, 3);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], 0);
}

TEST(Mrt, GroupPlacementIsAtomic)
{
    // Two loads fused to their consumers compete for the one mem unit.
    DdgBuilder b("grp");
    const NodeId l1 = b.load("l1");
    const NodeId a1 = b.add("a1");
    const NodeId st = b.store("st");
    b.graph().addEdge(l1, a1, DepKind::RegFlow, 0, true);
    b.flow(a1, st);
    Ddg g = b.take();
    const Machine m = Machine::p1l4();

    const GroupSet groups(g, m);
    const int gi = groups.groupOf(l1);
    ASSERT_EQ(gi, groups.groupOf(a1));
    const ComplexGroup &grp = groups.group(gi);
    ASSERT_EQ(grp.members.size(), 2u);
    EXPECT_EQ(grp.offsets[1] - grp.offsets[0], m.latency(Opcode::Load));

    Mrt mrt(m, 2);
    RefMrt ref(m, 2);
    Schedule sched(2, g.numNodes());
    EXPECT_TRUE(mrt.placeGroupFirstFit(g, grp, 0, 0, sched));
    EXPECT_EQ(sched.time(a1) - sched.time(l1), 2);
    for (const NodeId v : grp.members)
        ASSERT_EQ(ref.place(g.node(v).op, sched.time(v), v), sched.unit(v));

    // The adder row is now busy; a second identical group at the same
    // anchor parity must fail atomically and leave no residue.
    Mrt copy(mrt);
    Schedule probe(2, g.numNodes());
    EXPECT_FALSE(copy.placeGroupFirstFit(g, grp, 2, 2, probe));
    expectTablesAgree(copy, ref, 2);
    // Removing restores the table.
    mrt.removeGroup(g, grp, sched);
    EXPECT_TRUE(Mrt(mrt).placeGroupFirstFit(g, grp, 0, 0, probe));
}

TEST(Mrt, GroupSelfCompetitionDetected)
{
    // A fused pair whose members need the same unit class in the same
    // row: two loads at offsets 0 and II on one mem unit.
    DdgBuilder b("self");
    const NodeId l1 = b.load("l1");
    const NodeId c1 = b.copy("c1");
    const NodeId l2 = b.load("l2");
    const NodeId st = b.store("st");
    b.graph().addEdge(l1, c1, DepKind::RegFlow, 0, true);
    b.flow(c1, st);
    b.flow(l2, st);
    Ddg g = b.take();

    // Universal machine with one unit at II=2: l1 sits at offset 0 and
    // c1 at offset latency(ld)=2, i.e. the same kernel row — the group
    // conflicts with itself and per-member checks would miss it.
    const Machine m = Machine::universal("u1", 1, 2);
    const GroupSet groups(g, m);
    Mrt mrt(m, 2);
    Schedule sched(2, g.numNodes());
    (void)l2;
    const ComplexGroup &grp = groups.group(groups.groupOf(l1));
    EXPECT_FALSE(mrt.placeGroupFirstFit(g, grp, 0, 0, sched));
    // Failure must roll back completely: l1 took row 0 before c1 failed
    // there, and the table is still empty.
    expectTablesAgree(mrt, RefMrt(m, 2), 2);
    EXPECT_GE(unitFor(mrt, Opcode::Add, 0), 0);
    EXPECT_GE(unitFor(mrt, Opcode::Add, 1), 0);
}

} // namespace
} // namespace swp
