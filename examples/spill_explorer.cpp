/**
 * @file
 * Explore the register/throughput trade-off of a loop: for a range of
 * register budgets, run all three strategies and print the II, actual
 * register use, spill count and memory traffic of each.
 *
 * Usage:
 *   spill_explorer                     # the APSI 47 analogue on P2L4
 *   spill_explorer file.ddg [config]   # loops from a .ddg file
 *
 * config is a machine spec: a preset name (p1l4, p2l4 (default), p2l6,
 * universal) or the path of a machine-description file.
 */

#include <iostream>

#include "machine/machdesc.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/mii.hh"
#include "support/diag.hh"
#include "support/table.hh"
#include "workload/ddgio.hh"
#include "workload/paper_loops.hh"

namespace
{

using namespace swp;

void
explore(const Ddg &g, const Machine &m)
{
    std::cout << "loop '" << g.name() << "': " << g.numNodes()
              << " ops, " << g.numMemOps() << " memory ops, "
              << g.numLiveInvariants() << " invariants, MII="
              << mii(g, m) << " on " << m.name() << "\n";

    const PipelineResult ideal = pipelineLoop(g, m, Strategy::Ideal, {});
    std::cout << "unlimited registers: II=" << ideal.ii() << " using "
              << ideal.alloc.regsRequired << " registers\n";

    Table table({"budget", "strategy", "fits", "II", "regs", "spills",
                 "memops/iter", "attempts"});
    for (int budget = 64; budget >= 8; budget /= 2) {
        for (Strategy s :
             {Strategy::IncreaseII, Strategy::Spill,
              Strategy::BestOfAll}) {
            PipelinerOptions opts;
            opts.registers = budget;
            opts.multiSelect = true;
            opts.reuseLastIi = true;
            const PipelineResult r = pipelineLoop(g, m, s, opts);
            table.row()
                .add(budget)
                .add(strategyName(s))
                .add(r.success ? (r.usedFallback ? "fallback" : "yes")
                               : "NO")
                .add(r.ii())
                .add(r.alloc.regsRequired)
                .add(r.spilledLifetimes)
                .add(r.memOpsPerIteration())
                .add(r.attempts);
        }
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swp;

    const Machine m = machineFromSpec(argc > 2 ? argv[2] : "p2l4");
    if (argc > 1) {
        for (const SuiteLoop &loop : parseDdgFile(argv[1]))
            explore(loop.graph, m);
    } else {
        explore(buildApsi47Analogue(), m);
        explore(buildApsi50Analogue(), m);
    }
    return 0;
}
