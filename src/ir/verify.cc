#include "ir/verify.hh"

#include <algorithm>

#include "ir/graph_algo.hh"
#include "support/strutil.hh"

namespace swp
{

namespace
{

bool
fail(std::string *why, const std::string &msg)
{
    if (why)
        *why = msg;
    return false;
}

} // namespace

bool
verifyDdg(const Ddg &g, std::string *why)
{
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        if (edge.src < 0 || edge.src >= g.numNodes() || edge.dst < 0 ||
            edge.dst >= g.numNodes()) {
            return fail(why, strprintf("edge %d has bad endpoints", e));
        }
        if (edge.distance < 0)
            return fail(why, strprintf("edge %d has negative distance", e));
        if (edge.kind == DepKind::RegFlow &&
            !producesValue(g.node(edge.src).op)) {
            return fail(why, strprintf(
                "reg-flow edge %d from non-producing node %s", e,
                g.node(edge.src).name.c_str()));
        }
        if (edge.nonSpillable) {
            if (edge.kind != DepKind::RegFlow || edge.distance != 0) {
                return fail(why, strprintf(
                    "fused edge %d must be reg-flow with distance 0", e));
            }
        }
    }

    // An iteration must be executable: zero-distance edges acyclic.
    std::vector<NodeId> order;
    if (!intraIterationOrder(g, order))
        return fail(why, "zero-distance dependence cycle");

    for (NodeId n = 0; n < g.numNodes(); ++n) {
        const Node &node = g.node(n);
        const bool is_spill_load = node.origin == NodeOrigin::SpillLoad;
        const bool has_ref = node.spillRef.kind != SpillRef::Kind::None;
        if (is_spill_load && !has_ref) {
            return fail(why, strprintf(
                "spill load %s lacks a SpillRef", node.name.c_str()));
        }
        if (!is_spill_load && has_ref) {
            return fail(why, strprintf(
                "non-spill-load %s carries a SpillRef", node.name.c_str()));
        }
        for (InvId inv : node.invariantUses) {
            if (inv < 0 || inv >= g.numInvariants())
                return fail(why, strprintf("node %d uses bad invariant", n));
            const auto &consumers = g.invariant(inv).consumers;
            if (std::count(consumers.begin(), consumers.end(), n) < 1) {
                return fail(why, strprintf(
                    "invariant %d does not list node %d as consumer",
                    inv, n));
            }
        }
    }

    for (InvId i = 0; i < g.numInvariants(); ++i) {
        for (NodeId c : g.invariant(i).consumers) {
            if (c < 0 || c >= g.numNodes())
                return fail(why, strprintf("invariant %d bad consumer", i));
            const auto &uses = g.node(c).invariantUses;
            if (std::count(uses.begin(), uses.end(), i) < 1) {
                return fail(why, strprintf(
                    "node %d does not list invariant %d as used", c, i));
            }
        }
    }
    return true;
}

} // namespace swp
