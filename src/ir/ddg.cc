#include "ir/ddg.hh"

#include <sstream>

#include "support/diag.hh"

namespace swp
{

NodeId
Ddg::addNode(Opcode op, std::string name, NodeOrigin origin)
{
    fp_.clear();
    const NodeId id = NodeId(nodes_.size());
    Node n;
    n.op = op;
    n.name = name.empty() ? std::string(opcodeName(op)) +
                                std::to_string(id)
                          : std::move(name);
    n.origin = origin;
    nodes_.push_back(std::move(n));
    lists_.emplace_back();
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
        const Node &from = nodes_[std::size_t(src)];
        SWP_ASSERT(producesValue(from.op),
                   "register flow edge from non-producing node ", from.name);
    }
    fp_.clear();
    const EdgeId id = EdgeId(edges_.size());
    Edge e;
    e.src = src;
    e.dst = dst;
    e.kind = kind;
    e.distance = distance;
    e.nonSpillable = non_spillable;
    edges_.push_back(e);
    const auto append = [&](ListEnds &list, EdgeId Edge::*next) {
        (list.tail == invalidEdge ? list.head
                                  : edges_[std::size_t(list.tail)].*next) =
            id;
        list.tail = id;
    };
    append(lists_[std::size_t(src)].out, &Edge::nextOut);
    append(lists_[std::size_t(dst)].in, &Edge::nextIn);
    return id;
}

InvId
Ddg::addInvariant(std::string name)
{
    fp_.clear();
    const InvId id = InvId(invariants_.size());
    Invariant inv;
    inv.name = name.empty() ? "inv" + std::to_string(id) : std::move(name);
    invariants_.push_back(std::move(inv));
    return id;
}

void
Ddg::addInvariantUse(InvId inv, NodeId node)
{
    SWP_ASSERT(inv >= 0 && inv < numInvariants(), "bad invariant ", inv);
    SWP_ASSERT(node >= 0 && node < numNodes(), "bad node ", node);
    fp_.clear();
    invariants_[std::size_t(inv)].consumers.push_back(node);
    nodes_[std::size_t(node)].invariantUses.push_back(inv);
}

void
Ddg::killEdge(EdgeId e)
{
    SWP_ASSERT(e >= 0 && e < numEdges(), "bad edge id ", e);
    SWP_ASSERT(edges_[std::size_t(e)].alive, "edge ", e, " killed twice");
    fp_.clear();
    Edge &dead = edges_[std::size_t(e)];
    dead.alive = false;
    // Splicing e out keeps the other ids in order: the lists stay
    // ascending.
    const auto unlink = [&](ListEnds &list, EdgeId Edge::*next) {
        EdgeId prev = invalidEdge;
        for (EdgeId cur = list.head; cur != e;
             cur = edges_[std::size_t(cur)].*next) {
            SWP_ASSERT(cur != invalidEdge, "live edge ", e,
                       " missing from its list");
            prev = cur;
        }
        EdgeId &after = dead.*next;
        (prev == invalidEdge ? list.head
                             : edges_[std::size_t(prev)].*next) = after;
        if (list.tail == e)
            list.tail = prev;
        after = invalidEdge;
    };
    unlink(lists_[std::size_t(dead.src)].out, &Edge::nextOut);
    unlink(lists_[std::size_t(dead.dst)].in, &Edge::nextIn);
}

std::vector<EdgeId>
Ddg::valueUses(NodeId n) const
{
    std::vector<EdgeId> uses;
    for (EdgeId e : outEdges(n)) {
        if (edges_[std::size_t(e)].kind == DepKind::RegFlow)
            uses.push_back(e);
    }
    return uses;
}

int
Ddg::numValueUses(NodeId n) const
{
    int count = 0;
    for (EdgeId e : outEdges(n)) {
        if (edges_[std::size_t(e)].kind == DepKind::RegFlow)
            ++count;
    }
    return count;
}

int
Ddg::numLiveInvariants() const
{
    int count = 0;
    for (const Invariant &inv : invariants_) {
        if (!inv.spilled)
            ++count;
    }
    return count;
}

int
Ddg::numMemOps() const
{
    int count = 0;
    for (const Node &n : nodes_) {
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
        const Node &node = nodes_[std::size_t(n)];
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
            const Edge &edge = edges_[std::size_t(e)];
            os << "    -> n" << edge.dst << " ("
               << (edge.kind == DepKind::RegFlow
                       ? "reg"
                       : edge.kind == DepKind::Mem ? "mem" : "ctrl")
               << ", d=" << edge.distance
               << (edge.nonSpillable ? ", fused" : "") << ")\n";
        }
    }
    for (InvId i = 0; i < numInvariants(); ++i) {
        const Invariant &inv = invariants_[std::size_t(i)];
        os << "  inv" << i << " " << inv.name << " uses="
           << inv.consumers.size() << (inv.spilled ? " (spilled)" : "")
           << "\n";
    }
    return os.str();
}

} // namespace swp
