/**
 * @file
 * Operation codes and functional-unit classes.
 *
 * The paper's machine models (Section 5) have four functional unit
 * classes: load/store units, adders, multipliers and non-pipelined
 * divide/square-root units. Opcodes map onto those classes.
 */

#ifndef SWP_IR_OPCODE_HH
#define SWP_IR_OPCODE_HH

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

/** The unit classes of the paper's preset machines, in their
    class-index order (Machine::unitsFor). */
enum class FuClass
{
    Mem,      ///< Load/store units.
    Adder,    ///< FP adders (Add, Copy, Nop).
    Mult,     ///< FP multipliers.
    DivSqrt,  ///< Non-pipelined divide/square-root units.
};

/** True if the opcode defines a register value. */
bool producesValue(Opcode op);

/** Short mnemonic ("ld", "st", "add", ...). */
const char *opcodeName(Opcode op);

/** Parse a mnemonic; throws FatalError for unknown names. */
Opcode parseOpcode(const std::string &name);

/** Printable functional-unit class name. */
const char *fuClassName(FuClass fu);

} // namespace swp

#endif // SWP_IR_OPCODE_HH
