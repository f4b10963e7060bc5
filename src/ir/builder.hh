/**
 * @file
 * Fluent construction helper for DDGs, used by tests, examples and the
 * workload generator.
 */

#ifndef SWP_IR_BUILDER_HH
#define SWP_IR_BUILDER_HH

#include <string>

#include "ir/ddg.hh"

namespace swp
{

/**
 * Thin convenience wrapper over Ddg for building loops in code:
 *
 * @code
 * DdgBuilder b("example");
 * NodeId ld = b.load("Ld");
 * NodeId mul = b.mul("*");
 * b.flow(ld, mul);          // register flow, distance 0
 * b.flow(ld, add, 3);       // loop-carried, distance 3
 * Ddg g = b.take();
 * @endcode
 */
class DdgBuilder
{
  public:
    explicit DdgBuilder(std::string name = "loop") : g_(std::move(name)) {}

    NodeId
    op(Opcode opcode, std::string name = "")
    {
        return g_.addNode(opcode, std::move(name));
    }

    NodeId load(std::string name = "") { return op(Opcode::Load, name); }
    NodeId store(std::string name = "") { return op(Opcode::Store, name); }
    NodeId add(std::string name = "") { return op(Opcode::Add, name); }
    NodeId mul(std::string name = "") { return op(Opcode::Mul, name); }
    NodeId div(std::string name = "") { return op(Opcode::Div, name); }
    NodeId sqrt(std::string name = "") { return op(Opcode::Sqrt, name); }
    NodeId copy(std::string name = "") { return op(Opcode::Copy, name); }

    /** Register flow dependence src -> dst with the given distance. */
    EdgeId
    flow(NodeId src, NodeId dst, int distance = 0)
    {
        return g_.addEdge(src, dst, DepKind::RegFlow, distance);
    }

    /** Memory dependence src -> dst with the given distance. */
    EdgeId
    mem(NodeId src, NodeId dst, int distance = 0)
    {
        return g_.addEdge(src, dst, DepKind::Mem, distance);
    }

    /** Declare a loop invariant consumed by the listed nodes. */
    InvId
    invariant(std::string name, std::initializer_list<NodeId> consumers)
    {
        const InvId id = g_.addInvariant(std::move(name));
        for (NodeId n : consumers)
            g_.addInvariantUse(id, n);
        return id;
    }

    Ddg &graph() { return g_; }
    const Ddg &graph() const { return g_; }

    /** Move the built graph out. */
    Ddg take() { return std::move(g_); }

  private:
    Ddg g_;
};

/**
 * Build the paper's worked example (Figure 2a):
 * @code
 *   x(i) = y(i) * a + y(i - 3)
 * @endcode
 * Four operations: Ld (y), * (times invariant a), + (adds y(i-3),
 * a loop-carried use of Ld at distance 3) and St (x).
 */
Ddg buildPaperExampleLoop();

} // namespace swp

#endif // SWP_IR_BUILDER_HH
