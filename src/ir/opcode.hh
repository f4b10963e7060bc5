/**
 * @file
 * Operation codes of dependence-graph nodes.
 *
 * A Machine binds each opcode to one of its unit classes; the paper's
 * machine models (Section 5) have four: load/store units, adders,
 * multipliers and non-pipelined divide/square-root units.
 */

#ifndef SWP_IR_OPCODE_HH
#define SWP_IR_OPCODE_HH

#include <optional>
#include <string>

namespace swp
{

/** Operation kind of a dependence-graph node. */
enum class Opcode
{
    Load,   ///< Memory read; produces a value.
    Store,  ///< Memory write; produces no register value.
    Add,    ///< FP add (also covers subtract); executes on an adder.
    Mul,    ///< FP multiply.
    Div,    ///< FP divide; non-pipelined unit.
    Sqrt,   ///< Square root; non-pipelined unit.
    Copy,   ///< Register move; executes on an adder.
    Nop,    ///< Placeholder; consumes an issue slot on an adder.
    Select, ///< Predicated select (the residue of IF-conversion [2]);
            ///< picks between two values on an adder.
};

/** Number of Opcode values (for per-opcode table sizing). */
constexpr int numOpcodes = 9;

/** True if the opcode defines a register value. */
bool producesValue(Opcode op);

/** Short mnemonic ("ld", "st", "add", ...). */
const char *opcodeName(Opcode op);

/** The opcode whose mnemonic is `name`, or nullopt for unknown names. */
std::optional<Opcode> findOpcode(const std::string &name);

} // namespace swp

#endif // SWP_IR_OPCODE_HH
