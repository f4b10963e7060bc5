#include "workload/ddgio.hh"

#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>

#include "ir/verify.hh"
#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

namespace
{

DepKind
parseDepKind(const std::string &s)
{
    if (s == "reg")
        return DepKind::RegFlow;
    if (s == "mem")
        return DepKind::Mem;
    if (s == "ctrl")
        return DepKind::Control;
    SWP_FATAL("unknown dependence kind '", s, "'");
}

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

std::vector<SuiteLoop>
parseDdgStream(std::istream &in)
{
    std::vector<SuiteLoop> loops;
    SuiteLoop current;
    bool open = false;
    std::map<std::string, NodeId> nodeByName;
    std::map<std::string, InvId> invByName;
    std::string line;
    int lineNo = 0;

    auto needOpen = [&](const std::string &what) {
        if (!open) {
            SWP_FATAL("line ", lineNo, ": '", what,
                      "' outside a loop block");
        }
    };
    auto findNode = [&](const std::string &name) {
        const auto it = nodeByName.find(name);
        if (it == nodeByName.end())
            SWP_FATAL("line ", lineNo, ": unknown node '", name, "'");
        return it->second;
    };

    while (std::getline(in, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const auto tok = splitWs(line);
        if (tok.empty())
            continue;

        if (tok[0] == "loop") {
            if (open)
                SWP_FATAL("line ", lineNo, ": nested 'loop'");
            if (tok.size() != 2)
                SWP_FATAL("line ", lineNo, ": expected 'loop <name>'");
            current = SuiteLoop();
            current.graph.setName(tok[1]);
            nodeByName.clear();
            invByName.clear();
            open = true;
        } else if (tok[0] == "iterations") {
            needOpen("iterations");
            if (tok.size() != 2)
                SWP_FATAL("line ", lineNo, ": expected 'iterations <n>'");
            current.iterations = parseLong(tok[1]);
            if (current.iterations < 1)
                SWP_FATAL("line ", lineNo, ": iterations must be >= 1");
        } else if (tok[0] == "node") {
            needOpen("node");
            if (tok.size() != 3) {
                SWP_FATAL("line ", lineNo,
                          ": expected 'node <name> <opcode>'");
            }
            if (nodeByName.count(tok[1]))
                SWP_FATAL("line ", lineNo, ": duplicate node '", tok[1],
                          "'");
            nodeByName[tok[1]] =
                current.graph.addNode(parseOpcode(tok[2]), tok[1]);
        } else if (tok[0] == "inv") {
            needOpen("inv");
            if (tok.size() != 2)
                SWP_FATAL("line ", lineNo, ": expected 'inv <name>'");
            if (invByName.count(tok[1])) {
                SWP_FATAL("line ", lineNo, ": duplicate invariant '",
                          tok[1], "'");
            }
            invByName[tok[1]] = current.graph.addInvariant(tok[1]);
        } else if (tok[0] == "edge") {
            needOpen("edge");
            if (tok.size() != 5) {
                SWP_FATAL("line ", lineNo,
                          ": expected 'edge <src> <dst> <kind> <dist>'");
            }
            const long distance = parseLong(tok[4]);
            if (distance < 0 || distance > std::numeric_limits<int>::max()) {
                SWP_FATAL("line ", lineNo, ": edge distance ", distance,
                          " outside [0, ", std::numeric_limits<int>::max(),
                          "]");
            }
            // A line with several faults reports its kind first, then
            // its destination, then its source.
            const DepKind kind = parseDepKind(tok[3]);
            const NodeId dst = findNode(tok[2]);
            const NodeId src = findNode(tok[1]);
            const Opcode srcOp = current.graph.node(src).op;
            if (kind == DepKind::RegFlow && !producesValue(srcOp)) {
                SWP_FATAL("line ", lineNo, ": register edge from node '",
                          tok[1], "', whose opcode ", opcodeName(srcOp),
                          " produces no value");
            }
            current.graph.addEdge(src, dst, kind, int(distance));
        } else if (tok[0] == "use") {
            needOpen("use");
            if (tok.size() != 3) {
                SWP_FATAL("line ", lineNo,
                          ": expected 'use <inv> <node>'");
            }
            const auto it = invByName.find(tok[1]);
            if (it == invByName.end()) {
                SWP_FATAL("line ", lineNo, ": unknown invariant '",
                          tok[1], "'");
            }
            current.graph.addInvariantUse(it->second, findNode(tok[2]));
        } else if (tok[0] == "end") {
            needOpen("end");
            std::string why;
            if (!verifyDdg(current.graph, &why)) {
                SWP_FATAL("loop '", current.graph.name(),
                          "' is malformed: ", why);
            }
            loops.push_back(std::move(current));
            open = false;
        } else {
            SWP_FATAL("line ", lineNo, ": unknown directive '", tok[0],
                      "'");
        }
    }
    if (open)
        SWP_FATAL("unterminated loop block '", current.graph.name(), "'");
    return loops;
}

std::vector<SuiteLoop>
parseDdgFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        SWP_FATAL("cannot open '", path, "'");
    return parseDdgStream(in);
}

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
