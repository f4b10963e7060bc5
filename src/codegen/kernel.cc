#include "codegen/kernel.hh"

#include <algorithm>
#include <sstream>

#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

KernelCode
buildKernel(const Ddg &g, const Schedule &sched)
{
    SWP_ASSERT(sched.complete(), "cannot fold an incomplete schedule");
    KernelCode kernel;
    kernel.ii = sched.ii();
    kernel.stageCount = sched.stageCount();
    kernel.rows.assign(std::size_t(kernel.ii), {});
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        KernelSlot slot;
        slot.node = n;
        slot.stage = sched.stage(n);
        kernel.rows[std::size_t(sched.row(n))].push_back(slot);
    }
    for (auto &row : kernel.rows) {
        std::sort(row.begin(), row.end(),
                  [](const KernelSlot &a, const KernelSlot &b) {
                      if (a.stage != b.stage)
                          return a.stage < b.stage;
                      return a.node < b.node;
                  });
    }
    return kernel;
}

namespace
{

/** Destination register annotation for a node, if it defines a value. */
std::string
destText(const Ddg &g, const RotAllocResult &alloc, NodeId n)
{
    if (!producesValue(g.node(n).op))
        return "";
    const int off = alloc.offset[std::size_t(n)];
    if (off < 0)
        return " -> (dead)";
    return strprintf(" -> rot[%d]", off);
}

/** Source operand annotations: producer offsets with iteration shifts. */
std::string
srcText(const Ddg &g, const RotAllocResult &alloc, NodeId n)
{
    std::ostringstream os;
    bool first = true;
    for (EdgeId e : g.inEdges(n)) {
        const Edge &edge = g.edge(e);
        if (edge.kind != DepKind::RegFlow)
            continue;
        const int off = alloc.offset[std::size_t(edge.src)];
        os << (first ? " " : ", ");
        first = false;
        if (off < 0) {
            os << "?";
        } else if (edge.distance == 0) {
            os << strprintf("rot[%d]", off);
        } else {
            os << strprintf("rot[%d-%d]", off, edge.distance);
        }
    }
    for (InvId inv : g.node(n).invariantUses) {
        os << (first ? " " : ", ");
        first = false;
        os << "s" << inv;
    }
    return os.str();
}

} // namespace

std::string
formatKernelListing(const Ddg &g, const Machine &m, const Schedule &sched,
                    const RotAllocResult &alloc)
{
    const KernelCode kernel = buildKernel(g, sched);
    std::ostringstream os;
    os << "; loop " << g.name() << ": II=" << kernel.ii
       << " SC=" << kernel.stageCount << " rotating regs="
       << alloc.registers << "\n";

    // Prologue: stage s issues the kernel ops whose stage tag <= s.
    for (int s = 0; s < kernel.stageCount - 1; ++s) {
        os << strprintf("prologue_stage_%d:\n", s);
        for (int r = 0; r < kernel.ii; ++r) {
            for (const KernelSlot &slot : kernel.rows[std::size_t(r)]) {
                if (slot.stage <= s) {
                    os << strprintf("  [c%d] %-6s %-10s", r,
                                    opcodeName(g.node(slot.node).op),
                                    g.node(slot.node).name.c_str())
                       << srcText(g, alloc, slot.node)
                       << destText(g, alloc, slot.node) << "\n";
                }
            }
        }
        os << "  rotate\n";
    }

    os << "kernel:\n";
    for (int r = 0; r < kernel.ii; ++r) {
        for (const KernelSlot &slot : kernel.rows[std::size_t(r)]) {
            os << strprintf("  [c%d] %-6s %-10s (stage %d)", r,
                            opcodeName(g.node(slot.node).op),
                            g.node(slot.node).name.c_str(), slot.stage)
               << srcText(g, alloc, slot.node)
               << destText(g, alloc, slot.node) << "\n";
        }
    }
    os << "  rotate; branch kernel\n";

    // Epilogue: stage s (counting on) issues ops with stage tag > s.
    for (int s = 0; s < kernel.stageCount - 1; ++s) {
        os << strprintf("epilogue_stage_%d:\n", s);
        for (int r = 0; r < kernel.ii; ++r) {
            for (const KernelSlot &slot : kernel.rows[std::size_t(r)]) {
                if (slot.stage > s) {
                    os << strprintf("  [c%d] %-6s %-10s", r,
                                    opcodeName(g.node(slot.node).op),
                                    g.node(slot.node).name.c_str())
                       << "\n";
                }
            }
        }
        os << "  rotate\n";
    }
    (void)m;
    return os.str();
}

std::string
formatMveKernel(const Ddg &g, const Schedule &sched,
                const LifetimeInfo &lifetimes)
{
    const KernelCode kernel = buildKernel(g, sched);
    const int unroll = mveUnrollFactor(lifetimes);

    std::ostringstream os;
    os << "; MVE kernel for " << g.name() << ": II=" << kernel.ii
       << " unroll=" << unroll << " (max ceil(LT/II))\n";
    for (int copy = 0; copy < unroll; ++copy) {
        os << strprintf("copy_%d:\n", copy);
        for (int r = 0; r < kernel.ii; ++r) {
            for (const KernelSlot &slot : kernel.rows[std::size_t(r)]) {
                const Node &node = g.node(slot.node);
                os << strprintf("  [c%d] %-6s", r, opcodeName(node.op));
                if (producesValue(node.op)) {
                    // The definition of iteration (i + copy) uses the
                    // name bank (copy - stage) mod unroll so each
                    // in-flight instance has a distinct name.
                    const int bank =
                        ((copy - slot.stage) % unroll + unroll) % unroll;
                    os << strprintf(" v%d_%d =", slot.node, bank);
                }
                bool first = true;
                for (EdgeId e : g.inEdges(slot.node)) {
                    const Edge &edge = g.edge(e);
                    if (edge.kind != DepKind::RegFlow)
                        continue;
                    // The consumer in copy `copy` reads the instance
                    // defined `distance` iterations earlier by the
                    // producer's stage-adjusted bank.
                    const int bank =
                        ((copy - sched.stage(edge.src) - edge.distance) %
                             unroll + unroll) % unroll;
                    os << (first ? " " : ", ");
                    first = false;
                    os << strprintf("v%d_%d", edge.src, bank);
                }
                os << "  ; " << node.name << "\n";
            }
        }
    }
    os << strprintf("  branch copy_0 ; after %d kernel iterations\n",
                    unroll);
    return os.str();
}

} // namespace swp
