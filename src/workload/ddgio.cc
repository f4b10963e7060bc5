#include "workload/ddgio.hh"

#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <optional>

#include "ir/verify.hh"
#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

namespace
{

/** The dependence kind named `s`, or nullopt for unknown names. */
std::optional<DepKind>
findDepKind(const std::string &s)
{
    if (s == "reg")
        return DepKind::RegFlow;
    if (s == "mem")
        return DepKind::Mem;
    if (s == "ctrl")
        return DepKind::Control;
    return std::nullopt;
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
            long long iterations = 0;
            if (!parseInt64InRange(tok[1], 1,
                                   std::numeric_limits<long>::max(),
                                   iterations)) {
                SWP_FATAL("line ", lineNo, ": iterations ", tok[1],
                          " outside [1, ", std::numeric_limits<long>::max(),
                          "]");
            }
            current.iterations = long(iterations);
        } else if (tok[0] == "node") {
            needOpen("node");
            if (tok.size() != 3) {
                SWP_FATAL("line ", lineNo,
                          ": expected 'node <name> <opcode>'");
            }
            if (nodeByName.count(tok[1]))
                SWP_FATAL("line ", lineNo, ": duplicate node '", tok[1],
                          "'");
            const std::optional<Opcode> op = findOpcode(tok[2]);
            if (!op) {
                SWP_FATAL("line ", lineNo, ": unknown opcode mnemonic '",
                          tok[2], "'");
            }
            nodeByName[tok[1]] = current.graph.addNode(*op, tok[1]);
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
            int distance = 0;
            if (!parseIntInRange(tok[4], 0, std::numeric_limits<int>::max(),
                                 distance)) {
                SWP_FATAL("line ", lineNo, ": edge distance ", tok[4],
                          " outside [0, ", std::numeric_limits<int>::max(),
                          "]");
            }
            // A line with several faults reports its kind first, then
            // its destination, then its source.
            const std::optional<DepKind> kind = findDepKind(tok[3]);
            if (!kind) {
                SWP_FATAL("line ", lineNo, ": unknown dependence kind '",
                          tok[3], "'");
            }
            const NodeId dst = findNode(tok[2]);
            const NodeId src = findNode(tok[1]);
            const Opcode srcOp = current.graph.node(src).op;
            if (*kind == DepKind::RegFlow && !producesValue(srcOp)) {
                SWP_FATAL("line ", lineNo, ": register edge from node '",
                          tok[1], "', whose opcode ", opcodeName(srcOp),
                          " produces no value");
            }
            current.graph.addEdge(src, dst, *kind, distance);
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

} // namespace swp
