/**
 * @file
 * Text machine descriptions: parse, print, fingerprint, resolve.
 *
 * The format is line-based; `#` starts a comment and blank lines are
 * ignored. Three directives:
 *
 *     machine <name>                  # exactly once, before any class/op
 *     class <name> <count> pipelined|nonpipelined
 *     op <mnemonic> <class> <latency>
 *
 * The machine name extends to the end of the line; class names are
 * single tokens. Every one of the nine opcode mnemonics ("ld", "st",
 * "add", "mul", "div", "sqrt", "copy", "nop", "sel") must be bound to
 * a declared class exactly once. Unit counts are 1..64 (the scheduler
 * packs per-class rows into 64-bit busy masks); latencies are
 * 1..kMaxMachineLatency.
 * Class order in the text is the machine's class-index order.
 *
 * parseMachineDescription never throws on bad input: it collects
 * line-numbered diagnostics and produces a Machine only when the text
 * is fully valid. describeMachine emits the canonical text form, and
 * parse(describe(m)) reconstructs m exactly (Machine::operator==).
 */

#ifndef SWP_MACHINE_MACHDESC_HH
#define SWP_MACHINE_MACHDESC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "machine/machine.hh"

namespace swp
{

/**
 * Largest latency a description may give an opcode, in cycles. The II
 * search, the register circle (R x II bits) and the spill rounds all
 * grow with the latencies, so an unbounded value turns into an
 * overflow panic or an hour-long run instead of a diagnostic.
 */
inline constexpr int kMaxMachineLatency = 4096;

/** One parse diagnostic, anchored to a 1-based source line. */
struct MachDiag
{
    int line = 0;
    std::string message;
};

/** Outcome of parsing a machine description. */
struct MachParseResult
{
    /** The parsed machine; present only when diags is empty. */
    std::optional<Machine> machine;
    /** All problems found, in source order. */
    std::vector<MachDiag> diags;

    bool ok() const { return machine.has_value(); }
};

/** Parse machine-description text; collects diagnostics, never throws. */
MachParseResult parseMachineDescription(const std::string &text);

/** Canonical text form of a machine (round-trips through the parser). */
std::string describeMachine(const Machine &m);

/**
 * Content fingerprint over everything describeMachine emits (name,
 * classes, per-opcode binding and latency). Machines compare equal
 * iff their descriptions match, so this is the machine component of
 * memo keys.
 */
std::uint64_t machineContentFingerprint(const Machine &m);

/** Names accepted by machineFromSpec as presets, comma-separated. */
const char *machinePresetNames();

/**
 * Resolve a `--machine` argument: one of the preset names
 * ("p1l4", "p2l4", "p2l6", "universal") or a path to a description
 * file. Throws FatalError (with the parser's line diagnostics) on an
 * unreadable file or invalid description.
 */
Machine machineFromSpec(const std::string &spec);

} // namespace swp

#endif // SWP_MACHINE_MACHDESC_HH
