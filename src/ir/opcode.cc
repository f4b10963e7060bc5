#include "ir/opcode.hh"

#include "support/diag.hh"

namespace swp
{

bool
producesValue(Opcode op)
{
    return op != Opcode::Store && op != Opcode::Nop;
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Load: return "ld";
      case Opcode::Store: return "st";
      case Opcode::Add: return "add";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Sqrt: return "sqrt";
      case Opcode::Copy: return "copy";
      case Opcode::Nop: return "nop";
      case Opcode::Select: return "sel";
    }
    SWP_PANIC("unknown opcode ", int(op));
}

std::optional<Opcode>
findOpcode(const std::string &name)
{
    for (int op = 0; op < numOpcodes; ++op) {
        if (name == opcodeName(Opcode(op)))
            return Opcode(op);
    }
    return std::nullopt;
}

} // namespace swp
