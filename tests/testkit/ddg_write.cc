#include "testkit/ddg_write.hh"

#include <ostream>

#include "support/diag.hh"

namespace swp
{

namespace
{

const char *
depKindName(DepKind k)
{
    switch (k) {
      case DepKind::RegFlow: return "reg";
      case DepKind::Mem: return "mem";
      case DepKind::Control: return "ctrl";
    }
    SWP_PANIC("unknown dep kind ", int(k));
}

} // namespace

void
writeDdg(std::ostream &out, const SuiteLoop &loop)
{
    const Ddg &g = loop.graph;
    out << "loop " << g.name() << "\n";
    out << "iterations " << loop.iterations << "\n";
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        out << "node " << g.node(n).name << " "
            << opcodeName(g.node(n).op) << "\n";
    }
    for (InvId i = 0; i < g.numInvariants(); ++i) {
        if (!g.invariant(i).spilled)
            out << "inv " << g.invariant(i).name << "\n";
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        out << "edge " << g.node(edge.src).name << " "
            << g.node(edge.dst).name << " " << depKindName(edge.kind)
            << " " << edge.distance << "\n";
    }
    for (InvId i = 0; i < g.numInvariants(); ++i) {
        const Invariant &inv = g.invariant(i);
        if (inv.spilled)
            continue;
        for (NodeId c : inv.consumers)
            out << "use " << inv.name << " " << g.node(c).name << "\n";
    }
    out << "end\n";
}

} // namespace swp
