/**
 * @file
 * Cycle-accurate execution of a software-pipelined loop.
 *
 * The simulator plays the flat modulo schedule for a given number of
 * iterations on a machine with a rotating register file of R registers:
 * instance i of value v (allocated offset o_v) is written to physical
 * register (o_v + i) mod R when the producer's latency elapses and read
 * by consumers at their issue cycles. Loop-carried reads of pre-loop
 * instances see deterministic live-in tokens, which the simulator
 * preloads into the registers their allocation arcs reserve. Spill
 * stores write a per-(store, iteration) memory slot; spill loads read
 * slots, original-load streams, or spilled invariants per their
 * SpillRef annotation.
 *
 * Every register read is checked against the dataflow oracle, so any
 * scheduling, allocation or spill-rewrite bug surfaces as a concrete
 * "register clobbered" diagnosis; the datum streams of the original
 * stores are returned for end-to-end comparison with the sequential
 * reference.
 */

#ifndef SWP_SIM_VLIW_HH
#define SWP_SIM_VLIW_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "regalloc/rotalloc.hh"
#include "sched/schedule.hh"

namespace swp
{

/** Simulation outcome. */
struct SimResult
{
    bool ok = false;
    std::string error;

    /** Total execution cycles including ramp-up and drain. */
    long cycles = 0;

    /** Dynamic memory operations executed. */
    long memoryOps = 0;

    /** Datum streams of the original store nodes. */
    std::map<NodeId, std::vector<std::uint64_t>> storeStreams;
};

/**
 * Execute a scheduled, register-allocated loop.
 *
 * @param g           The (possibly spill-transformed) loop.
 * @param m           Machine model (for latencies).
 * @param sched       Complete normalized schedule of g.
 * @param alloc       Rotating allocation of g's lifetimes under sched.
 * @param iterations  Loop trip count to execute.
 */
SimResult simulatePipelined(const Ddg &g, const Machine &m,
                            const Schedule &sched,
                            const RotAllocResult &alloc, long iterations);

/**
 * End-to-end equivalence check: pipelined execution of `transformed`
 * (under sched/alloc) produces the same original-store datum streams as
 * the sequential execution of `original`.
 *
 * @param why When non-null, receives the first discrepancy found.
 */
bool equivalentToSequential(const Ddg &original, const Ddg &transformed,
                            const Machine &m, const Schedule &sched,
                            const RotAllocResult &alloc, long iterations,
                            std::string *why = nullptr);

} // namespace swp

#endif // SWP_SIM_VLIW_HH
