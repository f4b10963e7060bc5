#include "sched/schedule.hh"

#include <algorithm>
#include <sstream>

#include "sched/groups.hh"
#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

Schedule::Schedule(int ii, int num_nodes)
    : ii_(ii),
      time_(std::size_t(num_nodes), unset),
      unit_(std::size_t(num_nodes), -1)
{
    SWP_ASSERT(ii >= 1, "initiation interval must be positive, got ", ii);
}

bool
Schedule::complete() const
{
    for (int t : time_) {
        if (t == unset)
            return false;
    }
    return !time_.empty();
}

int
Schedule::stageCount() const
{
    SWP_ASSERT(complete(), "stageCount on incomplete schedule");
    int max_stage = 0;
    for (int n = 0; n < numNodes(); ++n)
        max_stage = std::max(max_stage, stage(n));
    const int min_stage = floorDiv(minTime(), ii_);
    return max_stage - min_stage + 1;
}

int
Schedule::minTime() const
{
    int best = INT32_MAX;
    for (int t : time_) {
        if (t != unset)
            best = std::min(best, t);
    }
    return best;
}

void
Schedule::normalize()
{
    const int lo = minTime();
    if (lo == INT32_MAX || lo == 0)
        return;
    for (int &t : time_) {
        if (t != unset)
            t -= lo;
    }
}

bool
validateSchedule(const Ddg &g, const Machine &m, const Schedule &s,
                 std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (s.numNodes() != g.numNodes())
        return fail("schedule size does not match graph");
    if (!s.complete())
        return fail("schedule is incomplete");

    const int ii = s.ii();

    // Dependence constraints. The carried bound is computed in long:
    // II * distance can exceed int for legal inputs.
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        const int lat = m.latency(g.node(edge.src).op);
        const long earliest =
            long(s.time(edge.src)) + lat - long(ii) * edge.distance;
        if (s.time(edge.dst) < earliest) {
            return fail(strprintf(
                "dependence %s -> %s violated: t=%d < %ld",
                g.node(edge.src).name.c_str(), g.node(edge.dst).name.c_str(),
                s.time(edge.dst), earliest));
        }
        if (edge.nonSpillable) {
            const int delay = fusedDelayOf(g, m, edge);
            if (s.time(edge.dst) != s.time(edge.src) + delay) {
                return fail(strprintf(
                    "fused edge %s -> %s not at exact offset %d",
                    g.node(edge.src).name.c_str(),
                    g.node(edge.dst).name.c_str(), delay));
            }
        }
    }

    // Resource constraints: each (class, unit, kernel row) has at most
    // one occupant, counting non-pipelined occupancy. The owner table
    // has Mrt's layout: class base + unit * II + row.
    std::vector<int> classBase(std::size_t(m.numClasses()) + 1, 0);
    for (int cls = 0; cls < m.numClasses(); ++cls) {
        classBase[std::size_t(cls) + 1] =
            classBase[std::size_t(cls)] + m.unitsInClass(cls) * ii;
    }
    std::vector<NodeId> owner(std::size_t(classBase.back()), invalidNode);
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        const Opcode op = g.node(n).op;
        const int cls = m.classOf(op);
        const int u = s.unit(n);
        if (u < 0 || u >= m.unitsInClass(cls)) {
            return fail(strprintf("node %s has bad unit %d",
                                  g.node(n).name.c_str(), u));
        }
        const int occ = m.occupancy(op);
        if (occ > ii) {
            return fail(strprintf(
                "node %s occupies its unit %d cycles > II=%d",
                g.node(n).name.c_str(), occ, ii));
        }
        const int base = classBase[std::size_t(cls)] + u * ii;
        int row = Schedule::floorMod(s.time(n), ii);
        for (int c = 0; c < occ; ++c) {
            NodeId &slot = owner[std::size_t(base + row)];
            if (slot != invalidNode) {
                return fail(strprintf(
                    "resource conflict on %s unit %d row %d: %s vs %s",
                    m.className(cls).c_str(), u, row,
                    g.node(slot).name.c_str(), g.node(n).name.c_str()));
            }
            slot = n;
            if (++row == ii)
                row = 0;
        }
    }
    return true;
}

std::string
formatSchedule(const Ddg &g, const Machine &m, const Schedule &s)
{
    std::ostringstream os;
    os << "II=" << s.ii() << " SC=" << s.stageCount() << "\n";

    std::vector<NodeId> order(std::size_t(g.numNodes()));
    for (NodeId n = 0; n < g.numNodes(); ++n)
        order[std::size_t(n)] = n;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        if (s.time(a) != s.time(b))
            return s.time(a) < s.time(b);
        return a < b;
    });

    os << "flat schedule (one iteration):\n";
    for (NodeId n : order) {
        os << strprintf("  cycle %3d  %-10s %-5s unit %d (stage %d)\n",
                        s.time(n), g.node(n).name.c_str(),
                        opcodeName(g.node(n).op), s.unit(n), s.stage(n));
    }

    os << "kernel (rows x stages):\n";
    for (int row = 0; row < s.ii(); ++row) {
        os << strprintf("  row %2d:", row);
        for (NodeId n : order) {
            if (s.row(n) == row) {
                os << " " << g.node(n).name << "[" << s.stage(n) << "]";
            }
        }
        os << "\n";
    }
    (void)m;
    return os.str();
}

} // namespace swp
