/**
 * @file
 * Spill candidate enumeration and selection heuristics (Sections 4.1
 * and 4.5).
 *
 * Candidates are loop-variant values (producing node + its live range in
 * the current schedule) and loop invariants. Two selection heuristics
 * are provided:
 *
 *  - Max(LT): spill the longest lifetime regardless of cost.
 *  - Max(LT/Traf): spill the lifetime with the highest ratio of length
 *    to the number of memory operations its spill code adds.
 *
 * The multi-selection shortcut (Section 4.5) keeps picking candidates
 * while an optimistic estimate of the register requirement — MaxLive
 * minus ceil(LT/II) per selected lifetime — still exceeds the budget.
 * Optimism guarantees spill code is never added in excess, at the price
 * of extra rescheduling rounds for very register-hungry loops.
 */

#ifndef SWP_SPILL_SELECT_HH
#define SWP_SPILL_SELECT_HH

#include <optional>
#include <vector>

#include "ir/ddg.hh"
#include "liferange/lifetimes.hh"

namespace swp
{

/** Lifetime-selection heuristic. */
enum class SpillHeuristic
{
    MaxLT,         ///< Largest lifetime.
    MaxLTOverTraf, ///< Largest lifetime / added memory operations.
};

/** A spillable lifetime (whole value, single use, or invariant). */
struct SpillCandidate
{
    bool isInvariant = false;
    NodeId node = invalidNode;  ///< Producer (loop variants).
    InvId inv = -1;             ///< Invariant id (invariants).

    /**
     * When >= 0, only this use edge is spilled (the Section 6
     * "spill uses instead of variables" extension): the value keeps its
     * register for the remaining consumers and `lifetime` holds the
     * cycles the value's live range *shrinks by*, not its full length.
     */
    EdgeId useEdge = -1;

    int lifetime = 0;           ///< LT in cycles (II for invariants).
    /**
     * Memory operations the spill adds: exactly what insertSpill adds
     * for this candidate. A use spill costs one reload, plus a fresh
     * spill store unless the producer is a load or an earlier use spill
     * already parked the value; it never reuses an original store.
     */
    int cost = 0;

    double
    ratio() const
    {
        return double(lifetime) / double(cost > 0 ? cost : 1);
    }
};

/**
 * Enumerate every spillable lifetime of the scheduled loop with its
 * length and spill cost into `out`, a reused buffer cleared first.
 * Values marked non-spillable (produced by spill loads or feeding spill
 * stores) and already-spilled invariants are excluded, as are values
 * whose spill would not free anything.
 *
 * @param include_uses Also enumerate single-use candidates: for every
 *        multi-use value, serving the *latest* use from memory shrinks
 *        the live range by the gap to the second-latest use.
 */
void spillCandidates(const Ddg &g, const LifetimeInfo &lifetimes,
                     bool include_uses, std::vector<SpillCandidate> &out);

/**
 * The spill store already parked this value in memory (a previous
 * use-granularity spill), or invalidNode.
 */
NodeId existingSpillStore(const Ddg &g, NodeId producer);

/**
 * The Section 4.2 store-reuse rule: the first register-flow use of
 * `producer` whose consumer can serve as the value's spill store, or -1.
 * Such a store stores exactly this value (single register input, no
 * invariant contribution) in the iteration it is produced (distance 0).
 */
EdgeId reusableStoreConsumer(const Ddg &g, NodeId producer);

/**
 * Cost of spilling a loop-variant value: loads and stores that would be
 * inserted after the Section 4.2 optimizations (no store when the
 * producer is a load or an existing store of the value is reusable).
 */
int spillCost(const Ddg &g, NodeId producer);

/** Pick the best single candidate under a heuristic. */
std::optional<SpillCandidate>
selectOne(const std::vector<SpillCandidate> &candidates, SpillHeuristic h);

/**
 * Multi-selection (Section 4.5): greedily pick candidates until the
 * optimistic estimate `maxLive - sum(ceil(LT/II))` (plus remaining
 * invariant registers) drops to the available register count.
 *
 * @param candidates All current candidates.
 * @param h          Ranking heuristic.
 * @param lifetimes  Lifetime info of the current schedule.
 * @param available  Register budget.
 * @param out        The selected candidates, at least one when any
 *                   exists; a reused buffer, cleared first.
 */
void selectMultiple(const std::vector<SpillCandidate> &candidates,
                    SpillHeuristic h, const LifetimeInfo &lifetimes,
                    int available, std::vector<SpillCandidate> &out);

} // namespace swp

#endif // SWP_SPILL_SELECT_HH
