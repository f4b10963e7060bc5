#include "testkit/machines.hh"

#include <sstream>
#include <utility>

#include "machine/machdesc.hh"
#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

Machine
editedMachine(const Machine &m, const std::vector<std::string> &lines)
{
    std::vector<std::string> text;
    std::istringstream in(m.describe());
    for (std::string line; std::getline(in, line);)
        text.push_back(line);
    for (const std::string &line : lines) {
        const std::vector<std::string> key = splitWs(line);
        bool replaced = false;
        for (std::string &have : text) {
            const std::vector<std::string> tok = splitWs(have);
            if (!tok.empty() && tok[0] == key.at(0) &&
                (key[0] == "machine" || tok.at(1) == key.at(1))) {
                have = line;
                replaced = true;
            }
        }
        if (!replaced)
            SWP_FATAL("no directive of ", m.name(), " matches '", line, "'");
    }
    std::string joined;
    for (const std::string &line : text) {
        joined += line;
        joined += '\n';
    }
    MachParseResult r = parseMachineDescription(joined);
    if (!r.ok())
        SWP_FATAL("edited machine rejected: ", r.diags.front().message);
    return std::move(*r.machine);
}

} // namespace swp
