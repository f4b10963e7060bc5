/**
 * @file
 * Quickstart: build a loop, pipeline it under a register budget, and
 * inspect the result.
 *
 * The loop is a dot-product-with-offset kernel:
 *
 *   s(i) = s(i-1) + x(i) * y(i)      -- a true recurrence
 *   z(i) = x(i) * c                  -- c is loop invariant
 *
 * Usage: quickstart [registers]
 */

#include <cstdlib>
#include <iostream>

#include "ir/builder.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/mii.hh"
#include "sim/vliw.hh"
#include "support/strutil.hh"

int
main(int argc, char **argv)
{
    using namespace swp;

    int registers = 8;
    if (argc > 1 && !parseIntInRange(argv[1], 1, 1 << 20, registers)) {
        std::cerr << "quickstart: bad register budget '" << argv[1]
                  << "' (want a positive integer)\n";
        return 2;
    }

    // 1. Describe the loop as a dependence graph.
    DdgBuilder b("dotacc");
    const NodeId ldx = b.load("ld_x");
    const NodeId ldy = b.load("ld_y");
    const NodeId prod = b.mul("x*y");
    b.flow(ldx, prod);
    b.flow(ldy, prod);
    const NodeId acc = b.add("s");
    b.flow(prod, acc);
    b.flow(acc, acc, 1);  // s(i) depends on s(i-1).
    const NodeId sts = b.store("st_s");
    b.flow(acc, sts);
    const NodeId scale = b.mul("x*c");
    b.flow(ldx, scale);
    b.invariant("c", {scale});
    const NodeId stz = b.store("st_z");
    b.flow(scale, stz);
    const Ddg g = b.take();

    // 2. Pick a machine and pipeline under the register budget.
    const Machine m = Machine::p2l4();
    std::cout << "machine: " << m.describe() << "\n";
    std::cout << "loop '" << g.name() << "': " << g.numNodes()
              << " ops, MII=" << mii(g, m) << ", budget " << registers
              << " registers\n\n";

    PipelinerOptions opts;
    opts.registers = registers;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    const PipelineResult r =
        pipelineLoop(g, m, Strategy::BestOfAll, opts);

    std::cout << "strategy " << strategyName(Strategy::BestOfAll) << ": "
              << (r.success ? "fits" : "DOES NOT FIT") << " in "
              << r.alloc.regsRequired << " registers (II=" << r.ii()
              << ", " << r.spilledLifetimes << " lifetimes spilled)\n\n";
    std::cout << formatSchedule(r.graph(), m, r.sched) << "\n";

    // 3. Execute the pipelined loop and check it against sequential
    //    semantics.
    std::string why;
    if (equivalentToSequential(g, r.graph(), m, r.sched, r.alloc.rotAlloc,
                               64, &why)) {
        std::cout << "simulation: 64 iterations match the sequential "
                     "reference\n";
    } else {
        std::cout << "simulation MISMATCH: " << why << "\n";
        return 1;
    }
    return 0;
}
