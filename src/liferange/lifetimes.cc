#include "liferange/lifetimes.hh"

#include <algorithm>
#include <limits>

#include "support/diag.hh"

namespace swp
{

LifetimeInfo
analyzeLifetimes(const Ddg &g, const Schedule &sched)
{
    SWP_ASSERT(sched.complete(), "lifetime analysis needs a full schedule");
    SWP_ASSERT(sched.numNodes() == g.numNodes(),
               "schedule and graph sizes differ");
    const int ii = sched.ii();

    LifetimeInfo info;
    info.ii = ii;
    info.lifetimes.assign(std::size_t(g.numNodes()), Lifetime{});
    info.pressure.assign(std::size_t(ii), 0);
    info.invariantCount = g.numLiveInvariants();

    for (NodeId u = 0; u < g.numNodes(); ++u) {
        Lifetime &lt = info.lifetimes[std::size_t(u)];
        lt.producer = u;
        if (!producesValue(g.node(u).op))
            continue;

        // The value's uses, read in place in valueUses order: lastUse
        // and the two ends break ties on it.
        for (EdgeId e : g.outEdges(u)) {
            const Edge &edge = g.edge(e);
            if (edge.kind != DepKind::RegFlow)
                continue;
            if (!lt.live) {
                lt.live = true;
                lt.start = sched.time(u);
                lt.end = lt.start;
                lt.secondEnd = lt.start;
            }
            // II * distance is formed in long: a lifetime whose end or
            // length leaves the int cycle range is an input limit, not
            // a value to wrap.
            const long dist = long(ii) * edge.distance;
            const long useAt = sched.time(edge.dst) + dist;
            if (useAt > std::numeric_limits<int>::max() ||
                useAt - lt.start > std::numeric_limits<int>::max()) {
                SWP_FATAL("loop '", g.name(), "': value n", u,
                          " is live until cycle ", useAt, " at II ", ii,
                          ", beyond the int cycle range");
            }
            if (useAt > lt.end) {
                lt.secondEnd = lt.end;
                lt.end = int(useAt);
                lt.lastUse = e;
                lt.schedComponent = sched.time(edge.dst) - lt.start;
                lt.distComponent = int(dist);
            } else if (useAt > lt.secondEnd) {
                lt.secondEnd = int(useAt);
            }
        }
        if (!lt.live)
            continue;

        // Fold the lifetime into the length-II pressure pattern: a
        // lifetime of length L adds floor(L/II) at every row plus one on
        // L mod II rows starting at its start row.
        const int len = lt.length();
        const int full = len / ii;
        const int rem = len % ii;
        for (int r = 0; r < ii; ++r)
            info.pressure[std::size_t(r)] += full;
        const int startRow = Schedule::floorMod(lt.start, ii);
        for (int k = 0; k < rem; ++k) {
            info.pressure[std::size_t((startRow + k) % ii)] += 1;
        }
    }

    info.maxLive = 0;
    for (int p : info.pressure)
        info.maxLive = std::max(info.maxLive, p);
    return info;
}

long
totalLifetime(const LifetimeInfo &info)
{
    long total = 0;
    for (const Lifetime &lt : info.lifetimes) {
        if (lt.live)
            total += lt.length();
    }
    return total;
}

int
mveUnrollFactor(const LifetimeInfo &lifetimes)
{
    int factor = 1;
    for (const Lifetime &lt : lifetimes.lifetimes) {
        if (!lt.live)
            continue;
        factor = std::max(
            factor, (lt.length() + lifetimes.ii - 1) / lifetimes.ii);
    }
    return factor;
}

} // namespace swp
