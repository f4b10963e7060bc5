#include "sched/groups.hh"

#include <algorithm>

#include "support/diag.hh"

namespace swp
{

int
fusedDelayOf(const Ddg &g, const Machine &m, const Edge &edge)
{
    return edge.fusedDelay > 0 ? edge.fusedDelay
                               : m.latency(g.node(edge.src).op);
}

void
GroupSet::reset(const Ddg &g, const Machine &m)
{
    const int n = g.numNodes();
    groupOf_.resize(std::size_t(n));
    offsetOf_.assign(std::size_t(n), 0);

    fused_.clear();
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive && edge.nonSpillable)
            fused_.push_back(e);
    }

    // No fused edge (every unspilled loop): node v is group v, which is
    // what the union-find below yields, without running it.
    if (fused_.empty()) {
        if (int(groups_.size()) < n)
            groups_.resize(std::size_t(n));
        for (NodeId v = 0; v < n; ++v) {
            groupOf_[std::size_t(v)] = v;
            ComplexGroup &grp = groups_[std::size_t(v)];
            grp.members.resize(1);
            grp.members[0] = v;
            grp.offsets.resize(1);
            grp.offsets[0] = 0;
        }
        numGroups_ = n;
        return;
    }

    // Union-find over fused edges.
    parent_.resize(std::size_t(n));
    for (int i = 0; i < n; ++i)
        parent_[std::size_t(i)] = i;
    auto find = [&](int x) {
        while (parent_[std::size_t(x)] != x) {
            parent_[std::size_t(x)] =
                parent_[std::size_t(parent_[std::size_t(x)])];
            x = parent_[std::size_t(x)];
        }
        return x;
    };
    for (EdgeId e : fused_) {
        const Edge &edge = g.edge(e);
        const int a = find(edge.src);
        const int b = find(edge.dst);
        if (a != b)
            parent_[std::size_t(a)] = b;
    }

    // Gather members per root; recycled group slots keep the capacity
    // of their member/offset vectors.
    rootGroup_.assign(std::size_t(n), -1);
    numGroups_ = 0;
    for (NodeId v = 0; v < n; ++v) {
        const int r = find(v);
        if (rootGroup_[std::size_t(r)] < 0) {
            rootGroup_[std::size_t(r)] = numGroups_;
            if (numGroups_ == int(groups_.size()))
                groups_.emplace_back();
            groups_[std::size_t(numGroups_)].members.clear();
            groups_[std::size_t(numGroups_)].offsets.clear();
            ++numGroups_;
        }
        const int gi = rootGroup_[std::size_t(r)];
        groupOf_[std::size_t(v)] = gi;
        groups_[std::size_t(gi)].members.push_back(v);
    }

    // Incident fused edges per node, as CSR lists in edge-id order
    // (a fused self-edge is listed once), so the offset walk below
    // visits only its own group's edges. Counts land in incStart_[v],
    // the inclusive prefix sum turns them into list ends, and a reverse
    // fill walks each end back to its list start.
    incStart_.assign(std::size_t(n) + 1, 0);
    for (EdgeId e : fused_) {
        const Edge &edge = g.edge(e);
        ++incStart_[std::size_t(edge.src)];
        if (edge.dst != edge.src)
            ++incStart_[std::size_t(edge.dst)];
    }
    for (int v = 0; v < n; ++v)
        incStart_[std::size_t(v) + 1] += incStart_[std::size_t(v)];
    incEdges_.resize(std::size_t(incStart_[std::size_t(n)]));
    for (auto it = fused_.rbegin(); it != fused_.rend(); ++it) {
        const Edge &edge = g.edge(*it);
        incEdges_[std::size_t(--incStart_[std::size_t(edge.src)])] = *it;
        if (edge.dst != edge.src)
            incEdges_[std::size_t(--incStart_[std::size_t(edge.dst)])] = *it;
    }

    // Solve offsets inside each group by propagating fused-edge
    // constraints offset(dst) = offset(src) + latency(src). Each member
    // is queued once and scans its own incident edges, so the walk is
    // O(nodes + fused edges) over all groups. Offsets are fixed by the
    // constraints, whatever the visiting order; a second path that
    // disagrees is found by the same per-edge check.
    known_.assign(std::size_t(n), 0);
    auto &known = known_;
    for (int gii = 0; gii < numGroups_; ++gii) {
        ComplexGroup &grp = groups_[std::size_t(gii)];
        if (grp.members.size() == 1) {
            grp.offsets.assign(1, 0);
            known[std::size_t(grp.members[0])] = true;
            continue;
        }
        // BFS from the first member.
        offsetOf_[std::size_t(grp.members[0])] = 0;
        known[std::size_t(grp.members[0])] = true;
        queue_.assign(1, grp.members[0]);
        for (std::size_t head = 0; head < queue_.size(); ++head) {
            const NodeId v = queue_[head];
            for (int k = incStart_[std::size_t(v)];
                 k < incStart_[std::size_t(v) + 1]; ++k) {
                const Edge &edge = g.edge(incEdges_[std::size_t(k)]);
                const int lat = fusedDelayOf(g, m, edge);
                const bool forward = edge.src == v;
                const NodeId w = forward ? edge.dst : edge.src;
                const int off =
                    offsetOf_[std::size_t(v)] + (forward ? lat : -lat);
                if (!known[std::size_t(w)]) {
                    known[std::size_t(w)] = true;
                    offsetOf_[std::size_t(w)] = off;
                    queue_.push_back(w);
                } else {
                    SWP_ASSERT(offsetOf_[std::size_t(w)] == off,
                               "inconsistent fused offsets at node ",
                               g.node(w).name);
                }
            }
        }

        // Normalize: smallest offset becomes 0; sort members by offset.
        int lo = INT32_MAX;
        for (NodeId v : grp.members) {
            SWP_ASSERT(known[std::size_t(v)],
                       "fused group member unreached: ", g.node(v).name);
            lo = std::min(lo, offsetOf_[std::size_t(v)]);
        }
        for (NodeId v : grp.members)
            offsetOf_[std::size_t(v)] -= lo;
        std::sort(grp.members.begin(), grp.members.end(),
                  [&](NodeId a, NodeId b) {
                      if (offsetOf_[std::size_t(a)] !=
                          offsetOf_[std::size_t(b)]) {
                          return offsetOf_[std::size_t(a)] <
                                 offsetOf_[std::size_t(b)];
                      }
                      return a < b;
                  });
        grp.offsets.clear();
        for (NodeId v : grp.members)
            grp.offsets.push_back(offsetOf_[std::size_t(v)]);
    }
}

} // namespace swp
