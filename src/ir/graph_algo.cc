#include "ir/graph_algo.hh"

namespace swp
{

bool
intraIterationOrder(const Ddg &g, std::vector<NodeId> &order)
{
    const int n = g.numNodes();
    std::vector<int> indeg(std::size_t(n), 0);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive && edge.distance == 0)
            ++indeg[std::size_t(edge.dst)];
    }
    // `order` doubles as the ready queue: a node is appended when its
    // last zero-distance predecessor has been ordered.
    order.clear();
    order.reserve(std::size_t(n));
    for (NodeId u = 0; u < n; ++u) {
        if (indeg[std::size_t(u)] == 0)
            order.push_back(u);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
        for (EdgeId e : g.outEdges(order[i])) {
            const Edge &edge = g.edge(e);
            if (edge.distance == 0 && --indeg[std::size_t(edge.dst)] == 0)
                order.push_back(edge.dst);
        }
    }
    return int(order.size()) == n;
}

} // namespace swp
