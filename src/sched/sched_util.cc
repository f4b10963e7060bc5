#include "sched/sched_util.hh"

#include "sched/groups.hh"

namespace swp
{

void
ArcTable::build(const Ddg &g, const Machine &m, const GroupSet &groups,
                int ii)
{
    // One walk of the edge table; boundary arcs are counted per group
    // on the way (counts land in start[gi]).
    const int ng = groups.numGroups();
    arcs_.clear();
    inStart_.assign(std::size_t(ng) + 1, 0);
    outStart_.assign(std::size_t(ng) + 1, 0);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        const int a = groups.groupOf(edge.src);
        const int b = groups.groupOf(edge.dst);
        arcs_.push_back({edge.src, edge.dst, a, b, edge.distance,
                         edge.nonSpillable ? fusedDelayOf(g, m, edge) : 0,
                         m.latency(g.node(edge.src).op) -
                             long(ii) * edge.distance});
        if (a != b) {
            ++outStart_[std::size_t(a)];
            ++inStart_[std::size_t(b)];
        }
    }

    // The inclusive prefix sums turn the counts into row ends, and a
    // reverse fill walks each end back to its row start, leaving every
    // row in edge-id order.
    for (int gi = 0; gi < ng; ++gi) {
        inStart_[std::size_t(gi) + 1] += inStart_[std::size_t(gi)];
        outStart_[std::size_t(gi) + 1] += outStart_[std::size_t(gi)];
    }
    in_.resize(std::size_t(inStart_[std::size_t(ng)]));
    out_.resize(std::size_t(outStart_[std::size_t(ng)]));
    for (auto it = arcs_.rbegin(); it != arcs_.rend(); ++it) {
        if (it->srcGroup == it->dstGroup)
            continue;
        in_[std::size_t(--inStart_[std::size_t(it->dstGroup)])] = {
            it->src, it->distance, it->weight - groups.offsetOf(it->dst)};
        out_[std::size_t(--outStart_[std::size_t(it->srcGroup)])] = {
            it->dst, it->distance, -it->weight - groups.offsetOf(it->src)};
    }
}

void
NodePriorities::compute(const ArcTable &arcs, int numNodes)
{
    const std::vector<ArcTable::Arc> &all = arcs.arcs();
    asap.assign(std::size_t(numNodes), 0);
    height.assign(std::size_t(numNodes), 0);
    for (int iter = 0; iter < numNodes; ++iter) {
        bool changed = false;
        for (const ArcTable::Arc &a : all) {
            const long t = asap[std::size_t(a.src)] + a.weight;
            if (t > asap[std::size_t(a.dst)]) {
                asap[std::size_t(a.dst)] = t;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    for (int iter = 0; iter < numNodes; ++iter) {
        bool changed = false;
        for (auto it = all.rbegin(); it != all.rend(); ++it) {
            const long h = height[std::size_t(it->dst)] + it->weight;
            if (h > height[std::size_t(it->src)]) {
                height[std::size_t(it->src)] = h;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

bool
groupsInternallyFeasible(const ArcTable &arcs, const GroupSet &groups)
{
    for (const ArcTable::Arc &a : arcs.arcs()) {
        if (a.srcGroup != a.dstGroup)
            continue;
        const int gap = groups.offsetOf(a.dst) - groups.offsetOf(a.src);
        if (gap < a.weight)
            return false;
        if (a.fusedDelay > 0 && gap != a.fusedDelay)
            return false;
    }
    return true;
}

} // namespace swp
