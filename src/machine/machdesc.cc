#include "machine/machdesc.hh"

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

namespace
{

/**
 * Parse a decimal integer token; false if the token is not a number.
 * A number beyond `long` saturates, so the caller's range checks (which
 * quote the token) reject it as out of range, not as a non-number.
 */
bool
parseInt(const std::string &tok, long &out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    out = std::strtol(tok.c_str(), &end, 10);
    return end == tok.c_str() + tok.size();
}

/** Accumulates directives and end-of-text consistency checks. */
class MachParser
{
  public:
    MachParseResult
    parse(const std::string &text)
    {
        std::istringstream in(text);
        std::string rawLine;
        int lineNo = 0;
        while (std::getline(in, rawLine)) {
            ++lineNo;
            std::string line = rawLine;
            std::size_t hash = line.find('#');
            if (hash != std::string::npos)
                line.erase(hash);
            line = trim(line);
            if (line.empty())
                continue;
            parseLine(lineNo, line);
        }
        finish();
        MachParseResult result;
        result.diags = std::move(diags_);
        if (result.diags.empty())
            result.machine.emplace(name_, std::move(classes_), classOf_,
                                   latency_);
        return result;
    }

  private:
    void
    diag(int line, std::string message)
    {
        diags_.push_back({line, std::move(message)});
    }

    int
    classIndex(const std::string &name) const
    {
        for (std::size_t c = 0; c < classes_.size(); ++c) {
            if (classes_[c].name == name)
                return int(c);
        }
        return -1;
    }

    void
    parseLine(int lineNo, const std::string &line)
    {
        std::istringstream toks(line);
        std::string directive;
        toks >> directive;
        if (directive == "machine") {
            std::string rest = trim(line.substr(directive.size()));
            if (haveName_) {
                diag(lineNo, "duplicate machine directive");
            } else if (rest.empty()) {
                diag(lineNo, "missing machine name");
            } else {
                haveName_ = true;
                name_ = rest;
            }
            return;
        }
        if (directive == "class") {
            parseClass(lineNo, toks);
            return;
        }
        if (directive == "op") {
            parseOp(lineNo, toks);
            return;
        }
        diag(lineNo, "unknown directive '" + directive + "'");
    }

    void
    parseClass(int lineNo, std::istringstream &toks)
    {
        std::string name, countTok, flag, extra;
        toks >> name >> countTok >> flag;
        if (name.empty() || countTok.empty() || flag.empty() ||
            (toks >> extra)) {
            diag(lineNo, "malformed class directive (expected: class "
                         "<name> <count> pipelined|nonpipelined)");
            return;
        }
        if (classIndex(name) >= 0) {
            diag(lineNo, "duplicate class '" + name + "'");
            return;
        }
        long count = 0;
        if (!parseInt(countTok, count)) {
            diag(lineNo, "class '" + name + "': expected an integer unit "
                         "count, got '" + countTok + "'");
            return;
        }
        if (count <= 0) {
            diag(lineNo, "class '" + name + "' needs a positive unit "
                         "count, got " + countTok);
            return;
        }
        if (count > 64) {
            diag(lineNo, "class '" + name + "' exceeds 64 unit instances "
                         "(busy masks are 64-bit), got " + countTok);
            return;
        }
        if (flag != "pipelined" && flag != "nonpipelined") {
            diag(lineNo, "class '" + name + "': expected 'pipelined' or "
                         "'nonpipelined', got '" + flag + "'");
            return;
        }
        classes_.push_back({name, int(count), flag == "pipelined"});
    }

    void
    parseOp(int lineNo, std::istringstream &toks)
    {
        std::string mnemonic, className, latTok, extra;
        toks >> mnemonic >> className >> latTok;
        const std::optional<Opcode> found = findOpcode(mnemonic);
        const int op = found ? int(*found) : -1;
        // A rejected binding of a known opcode is reported here, with
        // its line; finish() then does not also call the opcode unbound.
        const auto reject = [&](const std::string &message) {
            if (op >= 0)
                opRejected_[op] = true;
            diag(lineNo, message);
        };
        if (mnemonic.empty() || className.empty() || latTok.empty() ||
            (toks >> extra)) {
            reject("malformed op directive (expected: op <mnemonic> "
                   "<class> <latency>)");
            return;
        }
        if (op < 0) {
            diag(lineNo, "unknown opcode '" + mnemonic + "'");
            return;
        }
        const int cls = classIndex(className);
        if (cls < 0) {
            reject("unknown class '" + className + "'");
            return;
        }
        if (opBound_[op]) {
            diag(lineNo, "duplicate binding for opcode '" + mnemonic + "'");
            return;
        }
        long lat = 0;
        if (!parseInt(latTok, lat)) {
            reject("opcode '" + mnemonic + "': expected an integer "
                   "latency, got '" + latTok + "'");
            return;
        }
        if (lat <= 0) {
            reject("opcode '" + mnemonic + "' needs a positive latency, "
                   "got " + latTok);
            return;
        }
        if (lat > kMaxMachineLatency) {
            reject("opcode '" + mnemonic + "' exceeds the " +
                   std::to_string(kMaxMachineLatency) +
                   "-cycle latency limit, got " + latTok);
            return;
        }
        opBound_[op] = true;
        classOf_[op] = cls;
        latency_[op] = int(lat);
    }

    void
    finish()
    {
        if (!haveName_)
            diag(0, "missing machine directive");
        if (classes_.empty())
            diag(0, "machine declares no unit classes");
        for (int op = 0; op < numOpcodes; ++op) {
            if (!opBound_[op] && !opRejected_[op])
                diag(0, std::string("missing opcode binding for '") +
                            opcodeName(Opcode(op)) + "'");
        }
    }

    std::vector<MachDiag> diags_;
    bool haveName_ = false;
    std::string name_;
    std::vector<UnitClass> classes_;
    bool opBound_[numOpcodes] = {false};
    /** Opcodes whose binding was rejected with a line number. */
    bool opRejected_[numOpcodes] = {false};
    int classOf_[numOpcodes] = {0};
    int latency_[numOpcodes] = {1};
};

/** Local FNV-1a accumulator (the machine layer sits below sched/). */
class Fnv
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 1099511628211ull;
        }
    }

    void
    mix(const std::string &s)
    {
        mix(std::uint64_t(s.size()));
        for (char c : s) {
            h_ ^= std::uint8_t(c);
            h_ *= 1099511628211ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

} // namespace

MachParseResult
parseMachineDescription(const std::string &text)
{
    return MachParser().parse(text);
}

std::string
describeMachine(const Machine &m)
{
    std::ostringstream os;
    os << "machine " << m.name() << "\n";
    for (int c = 0; c < m.numClasses(); ++c) {
        const UnitClass &uc = m.unitClass(c);
        os << "class " << uc.name << " " << uc.units << " "
           << (uc.pipelined ? "pipelined" : "nonpipelined") << "\n";
    }
    for (int op = 0; op < numOpcodes; ++op) {
        os << "op " << opcodeName(Opcode(op)) << " "
           << m.className(m.classOf(Opcode(op))) << " "
           << m.latency(Opcode(op)) << "\n";
    }
    return os.str();
}

std::uint64_t
machineContentFingerprint(const Machine &m)
{
    Fnv f;
    f.mix(m.name());
    f.mix(std::uint64_t(m.numClasses()));
    for (int c = 0; c < m.numClasses(); ++c) {
        const UnitClass &uc = m.unitClass(c);
        f.mix(uc.name);
        f.mix(std::uint64_t(uc.units));
        f.mix(std::uint64_t(uc.pipelined));
    }
    for (int op = 0; op < numOpcodes; ++op) {
        f.mix(std::uint64_t(m.classOf(Opcode(op))));
        f.mix(std::uint64_t(m.latency(Opcode(op))));
    }
    return f.value();
}

const char *
machinePresetNames()
{
    return "p1l4, p2l4, p2l6, universal";
}

Machine
machineFromSpec(const std::string &spec)
{
    if (spec == "p1l4")
        return Machine::p1l4();
    if (spec == "p2l4")
        return Machine::p2l4();
    if (spec == "p2l6")
        return Machine::p2l6();
    if (spec == "universal")
        return Machine::universal("universal", 4, 2);
    std::ifstream in(spec);
    if (!in) {
        SWP_FATAL("cannot read machine description file '", spec,
                  "' (presets: ", machinePresetNames(), ")");
    }
    std::ostringstream text;
    text << in.rdbuf();
    MachParseResult r = parseMachineDescription(text.str());
    if (!r.ok()) {
        std::ostringstream msg;
        msg << "invalid machine description '" << spec << "':";
        for (const MachDiag &d : r.diags) {
            msg << "\n  ";
            if (d.line > 0)
                msg << "line " << d.line << ": ";
            msg << d.message;
        }
        SWP_FATAL(msg.str());
    }
    return std::move(*r.machine);
}

} // namespace swp
