/**
 * @file
 * Code generation and validation demo: pipeline a stencil loop under a
 * tight register budget, emit the rotating-register kernel listing with
 * prologue/epilogue, emit the modulo-variable-expansion form, execute
 * the schedule cycle by cycle on the VLIW simulator, and compare the
 * architectural results with sequential execution.
 *
 * Usage: codegen_sim [registers] [iterations]
 */

#include <cstdlib>
#include <iostream>

#include "codegen/kernel.hh"
#include "ir/builder.hh"
#include "pipeliner/pipeliner.hh"
#include "sim/vliw.hh"
#include "support/strutil.hh"

int
main(int argc, char **argv)
{
    using namespace swp;

    int registers = 12;
    if (argc > 1 && !parseIntInRange(argv[1], 1, 1 << 20, registers)) {
        std::cerr << "codegen_sim: bad register budget '" << argv[1]
                  << "' (want a positive integer)\n";
        return 2;
    }
    long long iterations = 50;
    if (argc > 2 &&
        !parseInt64InRange(argv[2], 1, 1000000000000LL, iterations)) {
        std::cerr << "codegen_sim: bad iteration count '" << argv[2]
                  << "' (want a positive integer)\n";
        return 2;
    }

    // A 1D stencil with reuse across iterations:
    //   t(i) = (x(i) + x(i-1)) * w     -- w loop invariant
    //   y(i) = t(i) + t(i-2)
    DdgBuilder b("stencil");
    const NodeId ldx = b.load("ld_x");
    const NodeId sum = b.add("x+x1");
    b.flow(ldx, sum);
    b.flow(ldx, sum, 1);  // x(i-1)
    const NodeId t = b.mul("t");
    b.flow(sum, t);
    b.invariant("w", {t});
    const NodeId y = b.add("y");
    b.flow(t, y);
    b.flow(t, y, 2);      // t(i-2)
    const NodeId st = b.store("st_y");
    b.flow(y, st);
    const Ddg g = b.take();

    const Machine m = Machine::p2l6();
    PipelinerOptions opts;
    opts.registers = registers;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    const PipelineResult r = pipelineLoop(g, m, Strategy::Spill, opts);
    std::cout << "pipelined '" << g.name() << "' on " << m.name()
              << ": II=" << r.ii() << ", " << r.alloc.regsRequired
              << " registers (budget " << registers << "), "
              << r.spilledLifetimes << " spills\n\n";

    // Rotating-register kernel with prologue and epilogue.
    std::cout << formatKernelListing(r.graph(), m, r.sched,
                                     r.alloc.rotAlloc);

    // Modulo variable expansion: software-only renaming.
    const LifetimeInfo info = analyzeLifetimes(r.graph(), r.sched);
    std::cout << "\n" << formatMveKernel(r.graph(), r.sched, info);

    // Cycle-accurate execution.
    const SimResult sim = simulatePipelined(
        r.graph(), m, r.sched, r.alloc.rotAlloc, long(iterations));
    if (!sim.ok) {
        std::cout << "\nsimulation FAILED: " << sim.error << "\n";
        return 1;
    }
    std::cout << "\nsimulated " << iterations << " iterations in "
              << sim.cycles << " cycles (" << sim.memoryOps
              << " memory ops); asymptotic rate = II = " << r.ii()
              << " cycles/iteration\n";

    std::string why;
    if (!equivalentToSequential(g, r.graph(), m, r.sched, r.alloc.rotAlloc,
                                long(iterations), &why)) {
        std::cout << "MISMATCH vs sequential reference: " << why << "\n";
        return 1;
    }
    std::cout << "all stored values match the sequential reference\n";
    return 0;
}
