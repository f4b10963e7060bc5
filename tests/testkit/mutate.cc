#include "testkit/mutate.hh"

namespace swp
{

Schedule
withCycle(const Schedule &s, NodeId n, int t)
{
    Schedule mutant = s;
    mutant.set(n, t, s.unit(n));
    return mutant;
}

Schedule
withUnit(const Schedule &s, NodeId n, int u)
{
    Schedule mutant = s;
    mutant.set(n, s.time(n), u);
    return mutant;
}

AllocationOutcome
withOffset(const AllocationOutcome &alloc, NodeId n, int off)
{
    AllocationOutcome mutant = alloc;
    mutant.rotAlloc.offset[std::size_t(n)] = off;
    return mutant;
}

namespace
{

template <typename Fn>
KernelCode
mapSlots(const KernelCode &kernel, NodeId n, Fn &&fn)
{
    KernelCode mutant;
    mutant.ii = kernel.ii;
    mutant.stageCount = kernel.stageCount;
    mutant.rows.resize(kernel.rows.size());
    for (std::size_t row = 0; row < kernel.rows.size(); ++row) {
        for (const KernelSlot &slot : kernel.rows[row]) {
            if (slot.node == n)
                fn(mutant, int(row), slot);
            else
                mutant.rows[row].push_back(slot);
        }
    }
    return mutant;
}

} // namespace

KernelCode
withSlotStage(const KernelCode &kernel, NodeId n, int stage)
{
    return mapSlots(kernel, n,
                    [stage](KernelCode &out, int row,
                            const KernelSlot &slot) {
                        KernelSlot moved = slot;
                        moved.stage = stage;
                        out.rows[std::size_t(row)].push_back(moved);
                    });
}

KernelCode
withSlotRow(const KernelCode &kernel, NodeId n, int row)
{
    return mapSlots(kernel, n,
                    [row](KernelCode &out, int, const KernelSlot &slot) {
                        out.rows[std::size_t(row)].push_back(slot);
                    });
}

KernelCode
withSlotDropped(const KernelCode &kernel, NodeId n)
{
    return mapSlots(kernel, n,
                    [](KernelCode &, int, const KernelSlot &) {});
}

Certificate
withCycleEdge(const Certificate &cert, std::size_t pos, EdgeId e)
{
    Certificate mutant = cert;
    mutant.cycle.edges.at(pos) = e;
    return mutant;
}

Certificate
withTallyOccupancy(const Certificate &cert, std::size_t pos, long occ)
{
    Certificate mutant = cert;
    mutant.resource.tallies.at(pos).occupancy = occ;
    return mutant;
}

Certificate
withTermLifetime(const Certificate &cert, std::size_t pos, int lt)
{
    Certificate mutant = cert;
    mutant.registers.terms.at(pos).minLifetime = lt;
    return mutant;
}

Certificate
withRegisterBound(const Certificate &cert, int bound)
{
    Certificate mutant = cert;
    mutant.registers.bound = bound;
    return mutant;
}

Certificate
withIiBound(const Certificate &cert, int bound)
{
    Certificate mutant = cert;
    mutant.iiBound = bound;
    return mutant;
}

EdgeId
findTightEdge(const Ddg &g, const Machine &m, const Schedule &s)
{
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        const int earliest = s.time(edge.src) +
                             m.latency(g.node(edge.src).op) -
                             s.ii() * edge.distance;
        if (s.time(edge.dst) == earliest)
            return e;
    }
    return -1;
}

} // namespace swp
