#include "machine/machine.hh"

#include <utility>

#include "machine/machdesc.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

/** The paper's Section 5 configurations as machine-description text. */
constexpr const char *kP1l4Text = R"(# Section 5, P1L4: one unit per class.
machine P1L4
class mem 1 pipelined
class adder 1 pipelined
class mult 1 pipelined
class divsqrt 1 nonpipelined
op ld mem 2
op st mem 1
op add adder 4
op mul mult 4
op div divsqrt 17
op sqrt divsqrt 30
op copy adder 1
op nop adder 1
op sel adder 1
)";

constexpr const char *kP2l4Text = R"(# Section 5, P2L4: two units per class.
machine P2L4
class mem 2 pipelined
class adder 2 pipelined
class mult 2 pipelined
class divsqrt 2 nonpipelined
op ld mem 2
op st mem 1
op add adder 4
op mul mult 4
op div divsqrt 17
op sqrt divsqrt 30
op copy adder 1
op nop adder 1
op sel adder 1
)";

constexpr const char *kP2l6Text = R"(# Section 5, P2L6: P2L4 with latency-6 adders and multipliers.
machine P2L6
class mem 2 pipelined
class adder 2 pipelined
class mult 2 pipelined
class divsqrt 2 nonpipelined
op ld mem 2
op st mem 1
op add adder 6
op mul mult 6
op div divsqrt 17
op sqrt divsqrt 30
op copy adder 1
op nop adder 1
op sel adder 1
)";

Machine
parsePreset(const char *text)
{
    MachParseResult r = parseMachineDescription(text);
    SWP_ASSERT(r.ok(), "embedded preset description rejected: ",
               r.diags.empty() ? std::string("no machine produced")
                               : r.diags.front().message);
    return std::move(*r.machine);
}

} // namespace

Machine::Machine(std::string name, std::vector<UnitClass> classes,
                 const int (&class_of)[numOpcodes],
                 const int (&latency)[numOpcodes])
    : name_(std::move(name)), classes_(std::move(classes))
{
    SWP_ASSERT(!classes_.empty(), "machine '", name_,
               "' needs at least one unit class");
    for (int op = 0; op < numOpcodes; ++op) {
        SWP_ASSERT(class_of[op] >= 0 && class_of[op] < numClasses(),
                   "machine '", name_, "': opcode ",
                   opcodeName(Opcode(op)), " bound to class ", class_of[op],
                   " out of range");
        SWP_ASSERT(latency[op] >= 1, "machine '", name_, "': opcode ",
                   opcodeName(Opcode(op)), " needs a positive latency");
        classOf_[op] = class_of[op];
        latency_[op] = latency[op];
    }
    for (const UnitClass &uc : classes_)
        SWP_ASSERT(uc.units > 0, "machine '", name_, "': class '", uc.name,
                   "' needs at least one unit");
    fingerprint_ = machineContentFingerprint(*this);
}

Machine
Machine::universal(std::string name, int units, int lat)
{
    SWP_ASSERT(units > 0, "universal machine needs at least one unit");
    SWP_ASSERT(lat >= 1, "universal machine needs a positive latency");
    int class_of[numOpcodes];
    int latency[numOpcodes];
    for (int op = 0; op < numOpcodes; ++op) {
        class_of[op] = 0;
        latency[op] = lat;
    }
    return Machine(std::move(name), {{"universal", units, true}}, class_of,
                   latency);
}

Machine
Machine::p1l4()
{
    static const Machine m = parsePreset(kP1l4Text);
    return m;
}

Machine
Machine::p2l4()
{
    static const Machine m = parsePreset(kP2l4Text);
    return m;
}

Machine
Machine::p2l6()
{
    static const Machine m = parsePreset(kP2l6Text);
    return m;
}

std::string
Machine::describe() const
{
    return describeMachine(*this);
}

bool
Machine::operator==(const Machine &o) const
{
    if (name_ != o.name_ || classes_ != o.classes_)
        return false;
    for (int op = 0; op < numOpcodes; ++op) {
        if (classOf_[op] != o.classOf_[op] || latency_[op] != o.latency_[op])
            return false;
    }
    return true;
}

} // namespace swp
