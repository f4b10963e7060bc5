#include "sched/sched_util.hh"

#include "sched/groups.hh"

namespace swp
{

void
NodePriorities::compute(const Ddg &g, const Machine &m, int ii)
{
    asap.assign(std::size_t(g.numNodes()), 0);
    height.assign(std::size_t(g.numNodes()), 0);
    const int n = g.numNodes();
    for (int iter = 0; iter < n; ++iter) {
        bool changed = false;
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (!edge.alive)
                continue;
            const long w = m.latency(g.node(edge.src).op) -
                           long(ii) * edge.distance;
            if (asap[std::size_t(edge.src)] + w >
                asap[std::size_t(edge.dst)]) {
                asap[std::size_t(edge.dst)] =
                    asap[std::size_t(edge.src)] + w;
                changed = true;
            }
            if (height[std::size_t(edge.dst)] + w >
                height[std::size_t(edge.src)]) {
                height[std::size_t(edge.src)] =
                    height[std::size_t(edge.dst)] + w;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

bool
groupsInternallyFeasible(const Ddg &g, const Machine &m,
                         const GroupSet &groups, int ii)
{
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        if (groups.groupOf(edge.src) != groups.groupOf(edge.dst))
            continue;
        const int lat = m.latency(g.node(edge.src).op);
        const int gap =
            groups.offsetOf(edge.dst) - groups.offsetOf(edge.src);
        if (gap < lat - long(ii) * edge.distance)
            return false;
        if (edge.nonSpillable && gap != fusedDelayOf(g, m, edge))
            return false;
    }
    return true;
}

} // namespace swp
