/**
 * @file
 * Kernel code generation for modulo schedules (Section 2.2 / 2.3).
 *
 * A modulo schedule of one iteration folds into a kernel of II rows;
 * the op placed at flat cycle t executes in row t mod II with stage tag
 * t div II. Execution ramps up through SC-1 prologue stages (stage s
 * runs the kernel ops whose stage tag is <= s), iterates the kernel in
 * steady state, and drains through the epilogue.
 *
 * Values outliving the II need renaming: a rotating register file does
 * it in hardware, and modulo variable expansion (MVE) does it in
 * software by unrolling the kernel max_v ceil(LT_v / II) times and
 * renaming each copy's definitions (Lam, 1988). Both forms are emitted.
 */

#ifndef SWP_CODEGEN_KERNEL_HH
#define SWP_CODEGEN_KERNEL_HH

#include <string>
#include <vector>

#include "ir/ddg.hh"
#include "liferange/lifetimes.hh"
#include "machine/machine.hh"
#include "regalloc/rotalloc.hh"
#include "sched/schedule.hh"

namespace swp
{

/** One operation slot in the kernel. */
struct KernelSlot
{
    NodeId node = invalidNode;
    int stage = 0;  ///< Stage tag: which in-flight iteration this is.
};

/** A folded kernel. */
struct KernelCode
{
    int ii = 0;
    int stageCount = 0;
    /** Kernel rows; row r holds the ops issued at cycle r of the kernel. */
    std::vector<std::vector<KernelSlot>> rows;
};

/** Fold a complete schedule into kernel rows. */
KernelCode buildKernel(const Ddg &g, const Schedule &sched);

/**
 * Render a full assembly-like listing: prologue stages, the kernel with
 * rotating-register operand annotations from `alloc`, and the epilogue.
 */
std::string formatKernelListing(const Ddg &g, const Machine &m,
                                const Schedule &sched,
                                const RotAllocResult &alloc);

/**
 * Render the MVE form: the kernel unrolled `mveUnrollFactor` times with
 * per-copy register renaming (no rotating file required).
 */
std::string formatMveKernel(const Ddg &g, const Schedule &sched,
                            const LifetimeInfo &lifetimes);

} // namespace swp

#endif // SWP_CODEGEN_KERNEL_HH
