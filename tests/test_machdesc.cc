/**
 * @file
 * Machine-description subsystem tests: the text-format parser and its
 * diagnostics, describe/parse round-tripping of the presets, the
 * content fingerprint, spec resolution, and a property test over
 * randomized valid descriptions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "machine/machdesc.hh"
#include "machine/machine.hh"
#include "support/diag.hh"
#include "support/rng.hh"

namespace swp
{
namespace
{

/** A minimal valid description to mutate in the rejection tests. */
const char *kValid = R"(machine Tiny
class mem 1 pipelined
class alu 2 nonpipelined
op ld mem 2
op st mem 1
op add alu 4
op mul alu 4
op div alu 17
op sqrt alu 30
op copy alu 1
op nop alu 1
op sel alu 1
)";

/** True when some diagnostic's message contains `needle`. */
bool
hasDiag(const MachParseResult &r, const std::string &needle)
{
    for (const MachDiag &d : r.diags) {
        if (d.message.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

std::string
diagDump(const MachParseResult &r)
{
    std::ostringstream os;
    for (const MachDiag &d : r.diags)
        os << "line " << d.line << ": " << d.message << "\n";
    return os.str();
}

TEST(MachDesc, ParsesAValidDescription)
{
    const MachParseResult r = parseMachineDescription(kValid);
    ASSERT_TRUE(r.ok()) << diagDump(r);
    const Machine &m = *r.machine;
    EXPECT_EQ(m.name(), "Tiny");
    ASSERT_EQ(m.numClasses(), 2);
    EXPECT_EQ(m.className(0), "mem");
    EXPECT_EQ(m.unitsInClass(0), 1);
    EXPECT_TRUE(m.pipelinedClass(0));
    EXPECT_EQ(m.className(1), "alu");
    EXPECT_EQ(m.unitsInClass(1), 2);
    EXPECT_FALSE(m.pipelinedClass(1));
    EXPECT_EQ(m.classOf(Opcode::Load), 0);
    EXPECT_EQ(m.classOf(Opcode::Add), 1);
    EXPECT_EQ(m.latency(Opcode::Sqrt), 30);
    // Unpipelined class: occupancy = latency.
    EXPECT_EQ(m.occupancy(Opcode::Add), 4);
    EXPECT_EQ(m.occupancy(Opcode::Load), 1);
}

TEST(MachDesc, CommentsAndBlankLinesIgnored)
{
    std::string text = std::string("# header comment\n\n") + kValid +
                       "\n  # trailing comment\n";
    const MachParseResult r = parseMachineDescription(text);
    EXPECT_TRUE(r.ok()) << diagDump(r);
}

TEST(MachDesc, RejectsUnknownClass)
{
    std::string text(kValid);
    text += "# rebind below fails: class never declared\n";
    const MachParseResult r = parseMachineDescription(
        "machine X\nclass alu 1 pipelined\nop ld fpu 2\n");
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasDiag(r, "unknown class 'fpu'")) << diagDump(r);
}

TEST(MachDesc, RejectsZeroOrNegativeInstances)
{
    const MachParseResult zero =
        parseMachineDescription("machine X\nclass alu 0 pipelined\n");
    EXPECT_FALSE(zero.ok());
    EXPECT_TRUE(
        hasDiag(zero, "class 'alu' needs a positive unit count, got 0"))
        << diagDump(zero);

    const MachParseResult neg =
        parseMachineDescription("machine X\nclass alu -3 pipelined\n");
    EXPECT_TRUE(hasDiag(neg, "needs a positive unit count, got -3"))
        << diagDump(neg);
}

TEST(MachDesc, RejectsMoreThan64Instances)
{
    const MachParseResult r =
        parseMachineDescription("machine X\nclass alu 65 pipelined\n");
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasDiag(r, "exceeds 64 unit instances")) << diagDump(r);
}

TEST(MachDesc, RejectsLatencyAboveTheLimit)
{
    // kValid binds div on its line 8.
    const auto withDivLatency = [](int latency) {
        std::string text(kValid);
        const std::string from = "op div alu 17";
        text.replace(text.find(from), from.size(),
                     "op div alu " + std::to_string(latency));
        return parseMachineDescription(text);
    };
    const MachParseResult atLimit = withDivLatency(kMaxMachineLatency);
    ASSERT_TRUE(atLimit.ok()) << diagDump(atLimit);
    EXPECT_EQ(atLimit.machine->latency(Opcode::Div), 4096);

    // The rejected binding also leaves div unbound (a second, line-0
    // diagnostic), as every rejected op directive does.
    const MachParseResult over = withDivLatency(kMaxMachineLatency + 1);
    EXPECT_FALSE(over.ok());
    ASSERT_FALSE(over.diags.empty());
    EXPECT_EQ(over.diags[0].line, 8);
    EXPECT_EQ(over.diags[0].message,
              "opcode 'div' exceeds the 4096-cycle latency limit, got 4097");
}

TEST(MachDesc, RejectsMissingOpcodeBinding)
{
    // Drop the sqrt binding from the valid description.
    std::string text(kValid);
    const std::size_t pos = text.find("op sqrt");
    ASSERT_NE(pos, std::string::npos);
    text.erase(pos, text.find('\n', pos) - pos + 1);
    const MachParseResult r = parseMachineDescription(text);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasDiag(r, "missing opcode binding for 'sqrt'"))
        << diagDump(r);
}

TEST(MachDesc, RejectsDuplicateClass)
{
    const MachParseResult r = parseMachineDescription(
        "machine X\nclass alu 1 pipelined\nclass alu 2 pipelined\n");
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasDiag(r, "duplicate class 'alu'")) << diagDump(r);
}

TEST(MachDesc, RejectsDuplicateOpcodeBinding)
{
    std::string text(kValid);
    text += "op ld mem 3\n";
    const MachParseResult r = parseMachineDescription(text);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasDiag(r, "duplicate binding for opcode 'ld'"))
        << diagDump(r);
}

TEST(MachDesc, RejectsUnknownOpcodeAndDirective)
{
    const MachParseResult r = parseMachineDescription(
        "machine X\nclass alu 1 pipelined\nop fma alu 4\nbogus 1 2\n");
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasDiag(r, "unknown opcode 'fma'")) << diagDump(r);
    EXPECT_TRUE(hasDiag(r, "unknown directive 'bogus'")) << diagDump(r);
}

TEST(MachDesc, RejectsMalformedDirectivesWithLineNumbers)
{
    const MachParseResult r = parseMachineDescription(
        "machine X\n"
        "class alu one pipelined\n"     // line 2
        "class fpu 2 sometimes\n"       // line 3
        "op ld\n"                       // line 4
        "op add alu four\n"             // line 5: needs alu declared...
        "machine Y\n");                 // line 6
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasDiag(r, "expected an integer unit count, got 'one'"))
        << diagDump(r);
    EXPECT_TRUE(
        hasDiag(r, "expected 'pipelined' or 'nonpipelined', got 'sometimes'"))
        << diagDump(r);
    EXPECT_TRUE(hasDiag(r, "malformed op directive")) << diagDump(r);
    EXPECT_TRUE(hasDiag(r, "duplicate machine directive")) << diagDump(r);
    // Line-anchored diagnostics carry their source line; only the
    // end-of-text consistency checks report line 0.
    for (const MachDiag &d : r.diags) {
        if (d.message.find("missing opcode binding") == std::string::npos &&
            d.message.find("declares no unit classes") == std::string::npos) {
            EXPECT_GT(d.line, 0) << d.message;
        }
    }
    for (int line : {2, 3, 4, 6}) {
        bool found = false;
        for (const MachDiag &d : r.diags)
            found = found || d.line == line;
        EXPECT_TRUE(found) << "no diagnostic on line " << line << "\n"
                           << diagDump(r);
    }
}

TEST(MachDesc, RejectsEmptyAndHeaderlessText)
{
    const MachParseResult empty = parseMachineDescription("");
    EXPECT_FALSE(empty.ok());
    EXPECT_TRUE(hasDiag(empty, "missing machine directive"))
        << diagDump(empty);
    EXPECT_TRUE(hasDiag(empty, "machine declares no unit classes"))
        << diagDump(empty);
}

TEST(MachDesc, PresetsRoundTripThroughDescribe)
{
    const Machine presets[] = {Machine::p1l4(), Machine::p2l4(),
                               Machine::p2l6(),
                               Machine::universal("universal", 4, 2)};
    for (const Machine &m : presets) {
        const MachParseResult r = parseMachineDescription(m.describe());
        ASSERT_TRUE(r.ok()) << m.name() << ":\n" << diagDump(r);
        EXPECT_TRUE(*r.machine == m) << m.name();
        EXPECT_EQ(machineContentFingerprint(*r.machine),
                  machineContentFingerprint(m))
            << m.name();
    }
}

TEST(MachDesc, FingerprintSeparatesTheConfigurations)
{
    const std::uint64_t p1l4 = machineContentFingerprint(Machine::p1l4());
    const std::uint64_t p2l4 = machineContentFingerprint(Machine::p2l4());
    const std::uint64_t p2l6 = machineContentFingerprint(Machine::p2l6());
    EXPECT_NE(p1l4, p2l4);
    EXPECT_NE(p2l4, p2l6);
    EXPECT_NE(p1l4, p2l6);

    // Any single-field change moves the fingerprint.
    Machine slow = Machine::p2l4();
    slow.setLatency(Opcode::Add, 5);
    EXPECT_NE(machineContentFingerprint(slow), p2l4);
    Machine unpiped = Machine::p2l4();
    unpiped.setPipelined(FuClass::Adder, false);
    EXPECT_NE(machineContentFingerprint(unpiped), p2l4);
}

TEST(MachDesc, SpecResolvesPresetsAndFiles)
{
    EXPECT_TRUE(machineFromSpec("p1l4") == Machine::p1l4());
    EXPECT_TRUE(machineFromSpec("p2l4") == Machine::p2l4());
    EXPECT_TRUE(machineFromSpec("p2l6") == Machine::p2l6());
    EXPECT_TRUE(machineFromSpec("universal").isUniversal());

    const std::string path = "test_machdesc_tmp.mach";
    {
        std::ofstream out(path);
        out << kValid;
    }
    const Machine m = machineFromSpec(path);
    EXPECT_EQ(m.name(), "Tiny");
    EXPECT_EQ(m.numClasses(), 2);
    std::remove(path.c_str());

    EXPECT_THROW(machineFromSpec("no_such_file.mach"), FatalError);
    {
        std::ofstream out(path);
        out << "machine Broken\nclass alu 0 pipelined\n";
    }
    EXPECT_THROW(machineFromSpec(path), FatalError);
    std::remove(path.c_str());
}

/** Emit a random valid description; returns the expected Machine. */
Machine
randomDescription(Rng &rng, std::string &textOut)
{
    const int numClasses = rng.range(1, 5);
    std::vector<UnitClass> classes;
    std::ostringstream text;
    text << "machine Rand" << rng.range(0, 999) << "\n";
    for (int c = 0; c < numClasses; ++c) {
        UnitClass uc;
        uc.name = "c" + std::to_string(c);
        uc.units = rng.range(1, 64);
        uc.pipelined = rng.chance(0.7);
        classes.push_back(uc);
        text << "class " << uc.name << " " << uc.units << " "
             << (uc.pipelined ? "pipelined" : "nonpipelined") << "\n";
        if (rng.chance(0.3))
            text << "# comment between directives\n";
    }
    int classOf[numOpcodes];
    int latency[numOpcodes];
    for (int op = 0; op < numOpcodes; ++op) {
        classOf[op] = rng.range(0, numClasses - 1);
        latency[op] = rng.range(1, 40);
        text << "op " << opcodeName(Opcode(op)) << "  "
             << classes[std::size_t(classOf[op])].name << "\t"
             << latency[op] << "\n";
    }
    // Recover the name the header line carries.
    const std::string header = text.str();
    const std::string name =
        header.substr(8, header.find('\n') - 8);
    textOut = text.str();
    return Machine(name, classes, classOf, latency);
}

TEST(MachDesc, PropertyRandomValidDescriptionsRoundTrip)
{
    Rng rng(0x4ac4de5cULL);
    for (int trial = 0; trial < 200; ++trial) {
        std::string text;
        const Machine expect = randomDescription(rng, text);
        const MachParseResult r = parseMachineDescription(text);
        ASSERT_TRUE(r.ok()) << "trial " << trial << "\n"
                            << text << diagDump(r);
        EXPECT_TRUE(*r.machine == expect) << "trial " << trial;

        // describe() is itself a valid description of the same machine.
        const MachParseResult again =
            parseMachineDescription(r.machine->describe());
        ASSERT_TRUE(again.ok()) << "trial " << trial;
        EXPECT_TRUE(*again.machine == *r.machine) << "trial " << trial;
        EXPECT_EQ(machineContentFingerprint(*again.machine),
                  machineContentFingerprint(expect))
            << "trial " << trial;
    }
}

} // namespace
} // namespace swp
