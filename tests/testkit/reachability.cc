#include "testkit/reachability.hh"

namespace swp
{

BitMatrix
reachability(const Ddg &g)
{
    const int n = g.numNodes();
    CsrAdj succ;
    succ.build(n, [&](auto &&emit) {
        for (NodeId u = 0; u < n; ++u) {
            for (EdgeId e : g.outEdges(u))
                emit(u, g.edge(e).dst);
        }
    });
    const auto succRow = [&](int v) { return succ.row(v); };
    AdjScc scc;
    SccScratch scratch;
    stronglyConnectedComponents(n, succRow, scc, scratch);

    BitMatrix reach;
    transitiveClosure(scc, succRow, reach);
    return reach;
}

} // namespace swp
