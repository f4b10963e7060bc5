/**
 * @file
 * Register allocation for software-pipelined loops on a rotating
 * register file, after Rau, Lee, Tirumalai and Schlansker (PLDI 1992).
 *
 * With a rotating file of R registers, instance i of value v (allocated
 * offset o_v) occupies physical register (o_v + i) mod R during
 * [start_v + i*II, end_v + i*II). Two values conflict exactly when their
 * arcs [q_v, q_v + LT_v) overlap on a circle of circumference C = R*II,
 * where q_v = (start_v - o_v*II) mod C. Choosing o_v freely means q_v
 * ranges over all residues congruent to start_v modulo II, so
 * allocation is packing |V| arcs of lengths LT_v at II-aligned anchors.
 *
 * The circle is one word-packed BitRow of C bits, a bit per occupied
 * cell. Values are placed one at a time in the chosen order; offsets are
 * tried o = 0, 1, ..., R-1. An offset fits when the (possibly wrapping)
 * range [q_v, q_v + LT_v) is clear. End-fit's key is the free gap back
 * to the previous set bit; best-fit adds the gap forward to the next set
 * bit. The first offset with the minimal key wins, and a zero key ends
 * the scan. Under end-fit, the offsets after a feasible one step the arc
 * back into the free gap before it, cutting the key by II per step, so
 * only the last of them that stays inside the gap can win and the scan
 * jumps to it. allocateLoop sorts each order once, reuses one row for
 * every register count it tries, and keeps the winning allocation.
 *
 * Callers that reject an over-budget schedule only need to know that it
 * does not fit, not by how much. allocateWithinBudget answers that with
 * the same search bounded by the budget: it packs nothing when MaxLive
 * plus the invariants already exceed the budget, and otherwise stops
 * both orders at budget - invariants rotating registers. The search
 * tries register counts upward from MaxLive, so a fit at or below that
 * limit is the exact search's fit: whenever the loop fits, the outcome
 * (offsets included) equals allocateLoop's.
 *
 * The paper reports that the "wands-only" strategy using end-fit with
 * adjacency ordering almost never needs more than MaxLive + 1 registers;
 * end-fit with start-time (adjacency) ordering is our default, with
 * first-fit and best-fit provided for comparison.
 *
 * Loop invariants are allocated in static registers, one each.
 */

#ifndef SWP_REGALLOC_ROTALLOC_HH
#define SWP_REGALLOC_ROTALLOC_HH

#include <optional>
#include <vector>

#include "ir/ddg.hh"
#include "liferange/lifetimes.hh"
#include "sched/schedule.hh"

namespace swp
{

/** Placement rule for each lifetime. */
enum class FitStrategy
{
    EndFit,    ///< Abut the end of an allocated arc (minimal left gap).
    FirstFit,  ///< Smallest feasible register offset.
    BestFit,   ///< Tightest enclosing free gap.
};

/** Processing order of the lifetimes. */
enum class AllocOrder
{
    Adjacency,         ///< Ascending start time (Rau's adjacency order).
    DescendingLength,  ///< Longest lifetimes first.
};

const char *fitStrategyName(FitStrategy s);

/** Result of allocating the loop variants of one schedule. */
struct RotAllocResult
{
    bool ok = false;
    int registers = 0;  ///< Rotating registers used (the R it fit into).
    /** Register offset o_v per producing node; -1 for non-values. */
    std::vector<int> offset;
};

/**
 * Smallest register count the strategy fits into, searching upward from
 * the MaxLive lower bound. Returns cap+1 if even `cap` registers fail.
 */
int minRotatingRegs(const LifetimeInfo &lifetimes,
                    FitStrategy strategy = FitStrategy::EndFit,
                    AllocOrder order = AllocOrder::Adjacency,
                    int cap = 1024);

/** Complete register allocation of a scheduled loop. */
struct AllocationOutcome
{
    bool fits = false;       ///< regsRequired <= budget.
    int regsRequired = 0;    ///< rotating + invariant registers.
    int rotating = 0;        ///< Rotating registers for loop variants.
    int invariants = 0;      ///< Static registers for loop invariants.
    int maxLive = 0;         ///< The MaxLive lower bound used.
    RotAllocResult rotAlloc;
};

/**
 * Allocate a scheduled loop against a register budget: rotating
 * registers for the loop variants (actual requirement, not MaxLive)
 * plus one static register per live invariant.
 */
AllocationOutcome allocateLoop(const Ddg &g, const Schedule &sched,
                               int budget,
                               FitStrategy strategy = FitStrategy::EndFit);

/** allocateLoop on lifetimes the caller has already analysed. */
AllocationOutcome allocateLoop(const LifetimeInfo &lifetimes, int budget,
                               FitStrategy strategy = FitStrategy::EndFit);

/**
 * allocateLoop's outcome if the loop fits `budget`, nullopt otherwise.
 * The search stops at the budget, so a schedule far over it costs no
 * more than one that just misses.
 */
std::optional<AllocationOutcome>
allocateWithinBudget(const LifetimeInfo &lifetimes, int budget,
                     FitStrategy strategy = FitStrategy::EndFit);

} // namespace swp

#endif // SWP_REGALLOC_ROTALLOC_HH
