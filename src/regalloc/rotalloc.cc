#include "regalloc/rotalloc.hh"

#include <algorithm>
#include <limits>

#include "support/bitmatrix.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

/** floorMod for longs. */
long
fmod2(long a, long m)
{
    const long r = a % m;
    return r < 0 ? r + m : r;
}

/** Live values of `lifetimes` in the processing order `order`. */
std::vector<const Lifetime *>
orderedValues(const LifetimeInfo &lifetimes, AllocOrder order)
{
    std::vector<const Lifetime *> values;
    for (const Lifetime &lt : lifetimes.lifetimes) {
        if (lt.live && lt.length() > 0)
            values.push_back(&lt);
    }

    switch (order) {
      case AllocOrder::Adjacency:
        std::stable_sort(values.begin(), values.end(),
                         [](const Lifetime *a, const Lifetime *b) {
                             if (a->start != b->start)
                                 return a->start < b->start;
                             return a->length() > b->length();
                         });
        break;
      case AllocOrder::DescendingLength:
        std::stable_sort(values.begin(), values.end(),
                         [](const Lifetime *a, const Lifetime *b) {
                             if (a->length() != b->length())
                                 return a->length() > b->length();
                             return a->start < b->start;
                         });
        break;
    }
    return values;
}

/** True if the arc [q, q+len) of the circle `row` is unoccupied. */
bool
arcFree(const BitRow &row, long q, long len)
{
    const long circ = row.size();
    const long end = q + len;
    if (end <= circ)
        return row.noneInRange(int(q), int(end));
    return row.noneInRange(int(q), int(circ)) &&
           row.noneInRange(0, int(end - circ));
}

/** Occupy the arc [q, q+len) of the circle `row`. */
void
occupyArc(BitRow &row, long q, long len)
{
    const long circ = row.size();
    const long end = q + len;
    if (end <= circ) {
        row.setRange(int(q), int(end));
    } else {
        row.setRange(int(q), int(circ));
        row.setRange(0, int(end - circ));
    }
}

/**
 * Gap from a free cell q back to the end of the nearest occupied arc:
 * the distance to the previous set bit, less one. The circle must hold
 * at least one occupied cell.
 */
long
gapBefore(const BitRow &row, long q)
{
    int p = row.prevSetBit(int(q) - 1);
    if (p < 0)
        p = row.prevSetBit(row.size() - 1);
    return fmod2(q - p, row.size()) - 1;
}

/**
 * Gap from cell e forward to the start of the nearest occupied arc: the
 * distance to the next set bit. The circle must hold at least one
 * occupied cell.
 */
long
gapAfter(const BitRow &row, long e)
{
    int n = row.nextSetBit(int(e));
    if (n < 0)
        n = row.nextSetBit(0);
    return fmod2(n - e, row.size());
}

/**
 * Pack `values`, in order, into a rotating file of `num_regs` registers,
 * writing the placement into `result`. `row` is the occupancy circle,
 * re-sized and cleared here so its storage is reused across attempts.
 */
void
packValues(const LifetimeInfo &lifetimes,
           const std::vector<const Lifetime *> &values, int num_regs,
           FitStrategy strategy, BitRow &row, RotAllocResult &result)
{
    result.ok = false;
    result.registers = num_regs;
    result.offset.assign(lifetimes.lifetimes.size(), -1);

    const long ii = lifetimes.ii;
    const long circ = long(num_regs) * ii;
    if (circ <= 0) {
        // No register: only an empty value set fits.
        result.ok = values.empty();
        return;
    }
    SWP_ASSERT(circ <= std::numeric_limits<int>::max(),
               "rotating circle R*II = ", circ, " exceeds the bit row size");
    row.reset(int(circ));

    bool empty = true;
    for (const Lifetime *lt : values) {
        const long len = lt->length();
        if (len > circ)
            return;  // A single value exceeds the whole file.

        // Offsets o = 0, 1, ... anchor the arc at q = (start - o*II) mod C.
        // On the empty circle every offset fits with the same key, so
        // offset 0 wins.
        int bestO = empty ? 0 : -1;
        long bestQ = fmod2(lt->start, circ);
        long bestKey = 0;
        long q = bestQ;
        for (int o = 0; !empty && o < num_regs; ++o) {
            if (o > 0)
                q = q >= ii ? q - ii : q - ii + circ;
            if (!arcFree(row, q, len))
                continue;
            if (strategy == FitStrategy::FirstFit) {
                bestO = o;  // The first feasible offset wins.
                bestQ = q;
                break;
            }

            long key = gapBefore(row, q);
            if (strategy == FitStrategy::EndFit) {
                // The next offsets move the arc back II cells at a time,
                // staying feasible while it starts inside the free gap
                // before q, and each cuts the key by II: only the last
                // of them can win, so jump to it.
                const int inGap =
                    int(std::min(key / ii, long(num_regs - 1 - o)));
                o += inGap;
                q = fmod2(q - inGap * ii, circ);
                key -= inGap * ii;
            } else {
                key += gapAfter(row, (q + len) % circ);
            }
            if (bestO < 0 || key < bestKey) {
                bestO = o;
                bestQ = q;
                bestKey = key;
            }
            if (key == 0)
                break;  // Cannot improve on a zero gap.
        }
        if (bestO < 0)
            return;  // No feasible position: allocation fails.
        result.offset[std::size_t(lt->producer)] = bestO;
        occupyArc(row, bestQ, len);
        empty = false;
    }
    result.ok = true;
}

/**
 * Smallest register count in [max(1, MaxLive), cap] that `values` pack
 * into, with its allocation moved into `won`; cap+1 (and `won`
 * untouched) if none does. With no live values, 0 registers.
 */
int
searchRegs(const LifetimeInfo &lifetimes,
           const std::vector<const Lifetime *> &values, FitStrategy strategy,
           int cap, BitRow &row, RotAllocResult &attempt, RotAllocResult &won)
{
    if (values.empty()) {
        packValues(lifetimes, values, 0, strategy, row, won);
        return 0;
    }
    for (int r = std::max(1, lifetimes.maxLive); r <= cap; ++r) {
        packValues(lifetimes, values, r, strategy, row, attempt);
        if (attempt.ok) {
            std::swap(won, attempt);
            return r;
        }
    }
    return cap + 1;
}

/**
 * allocateLoop's search with each order's register count also capped at
 * `limit`. Adjacency stops at its first fit, and descending length only
 * searches [MaxLive, adjacency - 1]; a limit below the adjacency count
 * just shrinks that range to [MaxLive, limit]. Descending length tries
 * the counts in ascending order either way, so its first fit in the
 * shrunken range is the exact search's first fit. Hence whenever the
 * exact count is at most `limit`, the outcome — offsets included — is
 * the exact one, and otherwise `rotating` is limit + 1.
 */
AllocationOutcome
allocateUpTo(const LifetimeInfo &info, int budget, FitStrategy strategy,
             int limit)
{
    AllocationOutcome outcome;
    outcome.maxLive = info.maxLive;
    outcome.invariants = info.invariantCount;

    // Both orderings are cheap next to scheduling; take whichever packs
    // tighter (adjacency is Rau's reference ordering, descending length
    // often wins on fan-out-heavy lifetimes).
    // budget * 4 would overflow for the effectively unlimited budget of
    // ideal runs (INT_MAX / 2); such budgets never bind the search —
    // maxLive + 64 keeps it viable — so the term applies only when
    // representable.
    const int maxScalableBudget = std::numeric_limits<int>::max() / 4;
    const int cap = std::min(
        limit, budget > maxScalableBudget
                   ? std::max(info.maxLive + 64, 64)
                   : std::max({budget * 4, info.maxLive + 64, 64}));
    // Each order is sorted once and one occupancy row serves every
    // attempt. Descending length only wins with strictly fewer registers
    // than adjacency, so its search stops below adjacency's count, and
    // the winning search's allocation is kept rather than recomputed.
    // When that range [max(1, MaxLive), adjacency - 1] is empty the
    // second order cannot win (with no live value both pack 0
    // registers), so it is not even built.
    BitRow row;
    RotAllocResult attempt;
    outcome.rotating =
        searchRegs(info, orderedValues(info, AllocOrder::Adjacency),
                   strategy, cap, row, attempt, outcome.rotAlloc);
    if (std::max(1, info.maxLive) <= outcome.rotating - 1) {
        outcome.rotating = searchRegs(
            info, orderedValues(info, AllocOrder::DescendingLength),
            strategy, outcome.rotating - 1, row, attempt, outcome.rotAlloc);
    }
    outcome.regsRequired = outcome.rotating + outcome.invariants;
    outcome.fits = outcome.regsRequired <= budget;
    return outcome;
}

} // namespace

const char *
fitStrategyName(FitStrategy s)
{
    switch (s) {
      case FitStrategy::EndFit: return "end-fit";
      case FitStrategy::FirstFit: return "first-fit";
      case FitStrategy::BestFit: return "best-fit";
    }
    SWP_PANIC("unknown fit strategy ", int(s));
}

int
minRotatingRegs(const LifetimeInfo &lifetimes, FitStrategy strategy,
                AllocOrder order, int cap)
{
    BitRow row;
    RotAllocResult attempt, won;
    return searchRegs(lifetimes, orderedValues(lifetimes, order), strategy,
                      cap, row, attempt, won);
}

AllocationOutcome
allocateLoop(const LifetimeInfo &info, int budget, FitStrategy strategy)
{
    return allocateUpTo(info, budget, strategy,
                        std::numeric_limits<int>::max());
}

AllocationOutcome
allocateLoop(const Ddg &g, const Schedule &sched, int budget,
             FitStrategy strategy)
{
    return allocateLoop(analyzeLifetimes(g, sched), budget, strategy);
}

std::optional<AllocationOutcome>
allocateWithinBudget(const LifetimeInfo &info, int budget,
                     FitStrategy strategy)
{
    // Every allocation needs at least MaxLive rotating registers.
    if (long(info.maxLive) + info.invariantCount > budget)
        return std::nullopt;
    AllocationOutcome outcome =
        allocateUpTo(info, budget, strategy, budget - info.invariantCount);
    if (!outcome.fits)
        return std::nullopt;
    return outcome;
}

} // namespace swp
