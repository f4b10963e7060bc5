#include "sched/ii_search.hh"

#include <algorithm>

#include "support/diag.hh"

namespace swp
{

int
defaultMaxIi(const Ddg &g, const Machine &m)
{
    // Serial execution of one iteration is an upper bound on any
    // sensible II; add slack for fused-group rigidity.
    int total = 2;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        total += std::max(m.latency(g.node(n).op),
                          m.occupancy(g.node(n).op));
    }
    return 2 * total + 32;
}

IiSearchResult
searchIi(ModuloScheduler &sched, const Ddg &g, const Machine &m,
         int start_ii, int max_ii)
{
    if (max_ii <= 0)
        max_ii = defaultMaxIi(g, m);
    SWP_ASSERT(start_ii >= 1, "II search must start at a positive II");

    IiSearchResult result;
    for (int ii = start_ii; ii <= max_ii; ++ii) {
        ++result.attempts;
        if (auto s = sched.scheduleAt(g, m, ii)) {
            result.sched = std::move(s);
            return result;
        }
    }
    return result;
}

} // namespace swp
