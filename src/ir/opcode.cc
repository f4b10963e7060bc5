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

Opcode
parseOpcode(const std::string &name)
{
    if (name == "ld") return Opcode::Load;
    if (name == "st") return Opcode::Store;
    if (name == "add") return Opcode::Add;
    if (name == "mul") return Opcode::Mul;
    if (name == "div") return Opcode::Div;
    if (name == "sqrt") return Opcode::Sqrt;
    if (name == "copy") return Opcode::Copy;
    if (name == "nop") return Opcode::Nop;
    if (name == "sel") return Opcode::Select;
    SWP_FATAL("unknown opcode mnemonic '", name, "'");
}

const char *
fuClassName(FuClass fu)
{
    switch (fu) {
      case FuClass::Mem: return "mem";
      case FuClass::Adder: return "adder";
      case FuClass::Mult: return "mult";
      case FuClass::DivSqrt: return "divsqrt";
    }
    SWP_PANIC("unknown fu class ", int(fu));
}

} // namespace swp
