/**
 * @file
 * Workload tests: suite generator determinism and distribution sanity,
 * APSI analogue signatures, and .ddg round-tripping.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ir/verify.hh"
#include "liferange/lifetimes.hh"
#include "sched/acyclic.hh"
#include "sched/mii.hh"
#include "support/diag.hh"
#include "support/strutil.hh"
#include "testkit/ddg_write.hh"
#include "workload/ddgio.hh"
#include "workload/paper_loops.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

TEST(SuiteGen, DeterministicAcrossRuns)
{
    SuiteParams params;
    params.numLoops = 25;
    const auto a = generateSuite(params);
    const auto b = generateSuite(params);
    ASSERT_EQ(a.size(), 25u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::ostringstream sa, sb;
        writeDdg(sa, a[i]);
        writeDdg(sb, b[i]);
        EXPECT_EQ(sa.str(), sb.str()) << "loop " << i;
        EXPECT_EQ(a[i].iterations, b[i].iterations);
    }
}

TEST(SuiteGen, SingleLoopMatchesFullRun)
{
    SuiteParams params;
    params.numLoops = 10;
    const auto suite = generateSuite(params);
    const SuiteLoop solo = generateSuiteLoop(params, 7);
    std::ostringstream a, b;
    writeDdg(a, suite[7]);
    writeDdg(b, solo);
    EXPECT_EQ(a.str(), b.str());
}

TEST(SuiteGen, AllLoopsAreWellFormedAndSchedulable)
{
    SuiteParams params;
    params.numLoops = 60;
    for (const SuiteLoop &loop : generateSuite(params)) {
        std::string why;
        ASSERT_TRUE(verifyDdg(loop.graph, &why))
            << loop.graph.name() << ": " << why;
        EXPECT_GE(loop.graph.numNodes(), 4);
        EXPECT_GE(loop.iterations, 1);
        // Every value has a consumer (dead results get stores).
        for (NodeId n = 0; n < loop.graph.numNodes(); ++n) {
            if (producesValue(loop.graph.node(n).op)) {
                EXPECT_GT(loop.graph.numValueUses(n), 0)
                    << loop.graph.name() << " node " << n;
            }
        }
        // MII is computable and the acyclic fallback always works.
        const Machine m = Machine::p2l4();
        EXPECT_GE(mii(loop.graph, m), 1);
        const Schedule s = scheduleAcyclic(loop.graph, m);
        std::string why2;
        EXPECT_TRUE(validateSchedule(loop.graph, m, s, &why2)) << why2;
    }
}

/** FNV-1a over the .ddg text and trip count of loops [0, 1258). */
std::uint64_t
suiteTextHash(std::uint64_t seed)
{
    SuiteParams params;
    params.seed = seed;
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::string &s) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    for (int i = 0; i < 1258; ++i) {
        const SuiteLoop loop = generateSuiteLoop(params, i);
        std::ostringstream text;
        writeDdg(text, loop);
        mix(text.str());
        mix(std::to_string(loop.iterations) + "\n");
    }
    return h;
}

TEST(SuiteGen, GeneratedLoopsArePinned)
{
    // The generator's exact output: names, invariant uses and trip
    // counts included, which graphFingerprint does not see. Every
    // harness and the golden fingerprint build on these loops, so a
    // change here must be deliberate.
    EXPECT_EQ(suiteTextHash(kDefaultSuiteSeed), 0xe2544a83aa8f4958ull);
    EXPECT_EQ(suiteTextHash(1), 0x3406e5b8eec996d4ull);
    EXPECT_EQ(suiteTextHash(314159265), 0x142af0609c229024ull);
}

TEST(SuiteGen, ContainsHeavyAndNormalLoops)
{
    SuiteParams params;
    params.numLoops = 300;
    int heavy = 0;
    long heavyIters = 0, totalIters = 0;
    for (const SuiteLoop &loop : generateSuite(params)) {
        // Heavy loops are recognizable by their distance-component
        // register floor: sum of self-recurrence distances + invariants
        // above 32.
        long floor = loop.graph.numLiveInvariants();
        for (EdgeId e = 0; e < loop.graph.numEdges(); ++e) {
            const Edge &edge = loop.graph.edge(e);
            if (edge.kind == DepKind::RegFlow && edge.distance > 0)
                floor += edge.distance;
        }
        totalIters += loop.iterations;
        if (floor > 32) {
            ++heavy;
            heavyIters += loop.iterations;
        }
    }
    // ~3% of 300.
    EXPECT_GE(heavy, 3);
    EXPECT_LE(heavy, 30);
    // They are disproportionately hot.
    EXPECT_GT(double(heavyIters) / double(totalIters),
              3.0 * double(heavy) / 300.0);
}

TEST(PaperLoops, Apsi47Signature)
{
    const Ddg g = buildApsi47Analogue();
    std::string why;
    ASSERT_TRUE(verifyDdg(g, &why)) << why;
    // Sized for ResMII 7 on P2L4 like the paper's loop.
    EXPECT_EQ(resMii(g, Machine::p2l4()), 7);
    EXPECT_EQ(recMii(g, Machine::p2l4()), 1);
}

TEST(PaperLoops, Apsi50Signature)
{
    const Ddg g = buildApsi50Analogue();
    std::string why;
    ASSERT_TRUE(verifyDdg(g, &why)) << why;
    // Distance components: 13 taps x distance 2.
    long dist = 0;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (g.edge(e).kind == DepKind::RegFlow)
            dist += g.edge(e).distance;
    }
    EXPECT_EQ(dist, 26);
    EXPECT_EQ(g.numLiveInvariants(), 8);
    // 26 + 8 > 32: the increase-II floor the paper describes.
    EXPECT_GT(dist + g.numLiveInvariants(), 32);
}

TEST(DdgIo, RoundTripsTheExample)
{
    SuiteLoop loop;
    loop.graph = buildApsi50Analogue();
    loop.iterations = 123;
    std::ostringstream out;
    writeDdg(out, loop);

    std::istringstream in(out.str());
    const auto loops = parseDdgStream(in);
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].graph.name(), "apsi50");
    EXPECT_EQ(loops[0].iterations, 123);
    EXPECT_EQ(loops[0].graph.numNodes(), loop.graph.numNodes());
    EXPECT_EQ(loops[0].graph.numInvariants(),
              loop.graph.numInvariants());

    std::ostringstream out2;
    writeDdg(out2, loops[0]);
    EXPECT_EQ(out.str(), out2.str());
}

TEST(DdgIo, ParsesMultipleLoopsAndComments)
{
    const char *text =
        "# a comment\n"
        "loop one\n"
        "node ld ld\n"
        "node st st\n"
        "edge ld st reg 0\n"
        "end\n"
        "loop two\n"
        "iterations 5\n"
        "node a add\n"
        "node s st   # trailing comment\n"
        "edge a a reg 1\n"
        "edge a s reg 0\n"
        "end\n";
    std::istringstream in(text);
    const auto loops = parseDdgStream(in);
    ASSERT_EQ(loops.size(), 2u);
    EXPECT_EQ(loops[0].graph.numNodes(), 2);
    EXPECT_EQ(loops[1].iterations, 5);
}

TEST(DdgIo, RejectsMalformedInput)
{
    auto parse = [](const char *text) {
        std::istringstream in(text);
        return parseDdgStream(in);
    };
    EXPECT_THROW(parse("node x ld\n"), FatalError);       // No loop.
    EXPECT_THROW(parse("loop a\nloop b\n"), FatalError);  // Nested.
    EXPECT_THROW(parse("loop a\nedge p q reg 0\nend\n"), FatalError);
    EXPECT_THROW(parse("loop a\n"), FatalError);          // Unterminated.
    EXPECT_THROW(parse("loop a\nnode x ld\nnode x ld\nend\n"),
                 FatalError);                             // Duplicate.

    // The message of the FatalError parsing `text` throws ("" if none).
    auto errorFor = [&](const std::string &text) -> std::string {
        try {
            parse(text.c_str());
        } catch (const FatalError &e) {
            return e.what();
        }
        return "";
    };

    // A register edge from a node that produces no value is a diagnostic
    // on its line, not a failed assertion in Ddg::addEdge.
    std::string error =
        errorFor("loop a\nnode u st\nnode v add\nedge u v reg 0\nend\n");
    EXPECT_NE(error.find("line 4: register edge from node 'u', whose "
                         "opcode st produces no value"),
              std::string::npos)
        << error;
    // An unknown opcode mnemonic or dependence kind is diagnosed on its
    // line, like every other fault.
    error = errorFor("loop a\nnode x bogus\nend\n");
    EXPECT_NE(error.find("line 2: unknown opcode mnemonic 'bogus'"),
              std::string::npos)
        << error;
    error = errorFor("loop a\nnode x ld\nnode y add\nedge x y regg 0\n"
                     "end\n");
    EXPECT_NE(error.find("line 4: unknown dependence kind 'regg'"),
              std::string::npos)
        << error;
    // Memory and control edges from a store stay legal.
    EXPECT_NO_THROW(
        parse("loop a\nnode u st\nnode v ld\nedge u v mem 1\nend\n"));

    // An iteration count is an integer in [1, LONG_MAX], diagnosed on
    // its line with the token quoted: it used to saturate at LONG_MAX,
    // and a non-number's diagnostic had no line.
    auto iterationsError = [&](const std::string &count) {
        return errorFor("loop a\niterations " + count + "\nnode x ld\nend\n");
    };
    for (const char *bad : {"99999999999999999999", "9223372036854775808",
                            "abc", "0", "-3", "12x"}) {
        error = iterationsError(bad);
        EXPECT_NE(error.find(strCat("line 2: iterations ", bad,
                                    " outside [1, 9223372036854775807]")),
                  std::string::npos)
            << error;
    }
    EXPECT_EQ(iterationsError("9223372036854775807"), "");
    EXPECT_EQ(iterationsError("1"), "");
}

TEST(DdgIo, RejectsEdgeDistanceOutsideIntRange)
{
    // Distances used to be narrowed with int(): 2^32 + 1 became 1 (a
    // different loop), 2^32 became 0 (a bogus zero-distance cycle), and
    // -1 reached Ddg::addEdge's assertion.
    auto errorFor = [](const std::string &distance) -> std::string {
        std::istringstream in("loop big\n"
                              "node b add\n"
                              "node a add\n"
                              "edge a b reg 0\n"
                              "edge b a reg " + distance + "\n"
                              "end\n");
        try {
            parseDdgStream(in);
        } catch (const FatalError &e) {
            return e.what();
        }
        return "";
    };
    EXPECT_NE(errorFor("4294967297").find(
                  "line 5: edge distance 4294967297 outside [0, "
                  "2147483647]"),
              std::string::npos);
    EXPECT_NE(errorFor("4294967296").find(
                  "line 5: edge distance 4294967296 outside"),
              std::string::npos);
    EXPECT_NE(errorFor("2147483648").find(
                  "line 5: edge distance 2147483648 outside"),
              std::string::npos);
    EXPECT_NE(errorFor("-1").find("line 5: edge distance -1 outside"),
              std::string::npos);
    // Beyond long, the token itself is quoted, not a saturated value.
    EXPECT_NE(errorFor("99999999999999999999")
                  .find("line 5: edge distance 99999999999999999999 "
                        "outside [0, 2147483647]"),
              std::string::npos)
        << errorFor("99999999999999999999");
    EXPECT_NE(errorFor("x1").find("line 5: edge distance x1 outside"),
              std::string::npos);

    // The bounds themselves parse.
    EXPECT_EQ(errorFor("2147483647"), "");
    EXPECT_EQ(errorFor("1"), "");
}

} // namespace
} // namespace swp
