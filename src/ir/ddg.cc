#include "ir/ddg.hh"

#include <algorithm>
#include <sstream>

#include "support/diag.hh"

namespace swp
{

NodeId
Ddg::addNode(Opcode op, std::string name, NodeOrigin origin)
{
    Core &core = mut();
    const NodeId id = NodeId(core.nodes.size());
    Node n;
    n.op = op;
    n.name = name.empty() ? std::string(opcodeName(op)) +
                                std::to_string(id)
                          : std::move(name);
    n.origin = origin;
    core.nodes.push_back(std::move(n));
    core.out.emplace_back();
    core.in.emplace_back();
    return id;
}

EdgeId
Ddg::addEdge(NodeId src, NodeId dst, DepKind kind, int distance,
             bool non_spillable)
{
    SWP_ASSERT(src >= 0 && src < numNodes(), "bad edge source ", src);
    SWP_ASSERT(dst >= 0 && dst < numNodes(), "bad edge target ", dst);
    SWP_ASSERT(distance >= 0, "negative dependence distance ", distance);
    if (kind == DepKind::RegFlow) {
        SWP_ASSERT(producesValue(node(src).op),
                   "register flow edge from non-producing node ",
                   node(src).name);
    }
    Core &core = mut();
    const EdgeId id = EdgeId(core.edges.size());
    Edge e;
    e.src = src;
    e.dst = dst;
    e.kind = kind;
    e.distance = distance;
    e.nonSpillable = non_spillable;
    core.edges.push_back(e);
    core.out[std::size_t(src)].push_back(id);
    core.in[std::size_t(dst)].push_back(id);
    return id;
}

InvId
Ddg::addInvariant(std::string name)
{
    Core &core = mut();
    const InvId id = InvId(core.invariants.size());
    Invariant inv;
    inv.name = name.empty() ? "inv" + std::to_string(id) : std::move(name);
    core.invariants.push_back(std::move(inv));
    return id;
}

void
Ddg::addInvariantUse(InvId inv, NodeId node)
{
    SWP_ASSERT(inv >= 0 && inv < numInvariants(), "bad invariant ", inv);
    SWP_ASSERT(node >= 0 && node < numNodes(), "bad node ", node);
    Core &core = mut();
    core.invariants[std::size_t(inv)].consumers.push_back(node);
    core.nodes[std::size_t(node)].invariantUses.push_back(inv);
}

void
Ddg::killEdge(EdgeId e)
{
    SWP_ASSERT(e >= 0 && e < numEdges(), "bad edge id ", e);
    SWP_ASSERT(core_->edges[std::size_t(e)].alive, "edge ", e,
               " killed twice");
    Core &core = mut();
    Edge &dead = core.edges[std::size_t(e)];
    dead.alive = false;
    // Erasing keeps the other ids in order: the lists stay ascending.
    const auto unlink = [e](std::vector<EdgeId> &list) {
        list.erase(std::find(list.begin(), list.end(), e));
    };
    unlink(core.out[std::size_t(dead.src)]);
    unlink(core.in[std::size_t(dead.dst)]);
}

std::vector<EdgeId>
Ddg::valueUses(NodeId n) const
{
    std::vector<EdgeId> uses;
    for (EdgeId e : outEdges(n)) {
        if (core_->edges[std::size_t(e)].kind == DepKind::RegFlow)
            uses.push_back(e);
    }
    return uses;
}

int
Ddg::numValueUses(NodeId n) const
{
    int count = 0;
    for (EdgeId e : outEdges(n)) {
        if (core_->edges[std::size_t(e)].kind == DepKind::RegFlow)
            ++count;
    }
    return count;
}

int
Ddg::numLiveInvariants() const
{
    int count = 0;
    for (const Invariant &inv : core_->invariants) {
        if (!inv.spilled)
            ++count;
    }
    return count;
}

int
Ddg::numMemOps() const
{
    int count = 0;
    for (const Node &n : core_->nodes) {
        if (n.op == Opcode::Load || n.op == Opcode::Store)
            ++count;
    }
    return count;
}

std::string
Ddg::dump() const
{
    std::ostringstream os;
    os << "ddg " << name() << " (" << numNodes() << " nodes, "
       << numInvariants() << " invariants)\n";
    for (NodeId n = 0; n < numNodes(); ++n) {
        const Node &node = core_->nodes[std::size_t(n)];
        os << "  n" << n << " " << node.name << " ["
           << opcodeName(node.op) << "]";
        if (node.origin == NodeOrigin::SpillLoad)
            os << " (spill-load)";
        if (node.origin == NodeOrigin::SpillStore)
            os << " (spill-store)";
        if (node.nonSpillableValue)
            os << " (non-spillable)";
        os << "\n";
        for (EdgeId e : outEdges(n)) {
            const Edge &edge = core_->edges[std::size_t(e)];
            os << "    -> n" << edge.dst << " ("
               << (edge.kind == DepKind::RegFlow
                       ? "reg"
                       : edge.kind == DepKind::Mem ? "mem" : "ctrl")
               << ", d=" << edge.distance
               << (edge.nonSpillable ? ", fused" : "") << ")\n";
        }
    }
    for (InvId i = 0; i < numInvariants(); ++i) {
        const Invariant &inv = core_->invariants[std::size_t(i)];
        os << "  inv" << i << " " << inv.name << " uses="
           << inv.consumers.size() << (inv.spilled ? " (spilled)" : "")
           << "\n";
    }
    return os.str();
}

} // namespace swp
