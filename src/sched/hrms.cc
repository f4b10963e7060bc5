#include "sched/hrms.hh"

#include <algorithm>
#include <limits>

#include "ir/graph_algo.hh"
#include "sched/groups.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/sched_util.hh"
#include "support/bitmatrix.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

constexpr long negInf = schedNegInf;
constexpr long posInf = schedPosInf;

/**
 * Scheduling context shared by the ordering and placement phases.
 *
 * All sizable state — the complex groups, the probe's arc table, the
 * condensed group-graph adjacency and its SCCs, the priority buffers
 * and the MRT — lives in the scheduler's SchedWorkspace and is
 * cleared, not reallocated, for each probe.
 */
struct HrmsContext
{
    const Ddg &g;
    const Machine &m;
    const int ii;
    SchedWorkspace &ws;
    GroupSet &groups;  ///< ws.groups, rebuilt for this probe.
    int n = 0;         ///< Number of complex groups.

    /** Partition the graph and flatten its edges (ws.arcs). */
    HrmsContext(const Ddg &graph, const Machine &mach, int interval,
                SchedWorkspace &workspace)
        : g(graph),
          m(mach),
          ii(interval),
          ws(workspace),
          groups(workspace.groups)
    {
        groups.reset(graph, mach);
        n = groups.numGroups();
        ws.arcs.build(graph, mach, groups, ii);
    }

    /** Build what the ordering reads: the group graph and the ASAP /
        height priorities of nodes and groups. */
    void
    analyze()
    {
        buildGroupGraph();

        ws.prio.compute(ws.arcs, g.numNodes());
        groupPriorities(ws.prio, groups, ws.gAsap, ws.gHeight);
    }

    /** Group gi's boundary arcs: out-arcs (successors), in-arcs
        (predecessors), or zero-distance out-arcs. */
    enum class Arcs
    {
        Out,
        In,
        ZeroOut,
    };

    /** Call f(g) for the group g at the far end of each of gi's arcs
        of `kind`, in edge-id order, once per edge: a group joined by
        parallel edges comes up once per edge. */
    template <typename F>
    void
    forEachNeighbour(int gi, Arcs kind, F &&f) const
    {
        const ArcTable::Bounds row = kind == Arcs::In ? ws.arcs.inArcs(gi)
                                                      : ws.arcs.outArcs(gi);
        for (const ArcTable::Bound &b : row) {
            if (kind != Arcs::ZeroOut || b.distance == 0)
                f(groups.groupOf(b.node));
        }
    }

  private:
    /** Group gi's successor groups for Tarjan: random access over its
        out-arcs. A parallel edge repeats a successor; revisiting a
        visited successor changes nothing, so the SCCs and their
        numbering are those of the deduplicated graph. */
    struct SuccessorRow
    {
        ArcTable::Bounds arcs;
        const GroupSet *groups;

        std::size_t
        size() const
        {
            return std::size_t(arcs.last - arcs.first);
        }
        int
        operator[](std::size_t i) const
        {
            return groups->groupOf(arcs.first[i].node);
        }
    };

    /**
     * Build the condensed graph over complex groups — successor and
     * predecessor bit rows from the arc table's boundary arcs — and its
     * SCCs, which the ordering ranks recurrences by.
     */
    void
    buildGroupGraph()
    {
        ws.succBits.reset(n, n);
        ws.predBits.reset(n, n);
        for (int gi = 0; gi < n; ++gi) {
            forEachNeighbour(gi, Arcs::Out,
                             [&](int to) { ws.succBits.set(gi, to); });
            forEachNeighbour(gi, Arcs::In,
                             [&](int from) { ws.predBits.set(gi, from); });
        }
        stronglyConnectedComponents(
            n,
            [&](int v) { return SuccessorRow{ws.arcs.outArcs(v), &groups}; },
            ws.scc, ws.sccScratch);
    }
};

/**
 * Stable sort of v by `less`: insertion-sorted runs, then bottom-up
 * merges through `buf`. Both vectors are workspace-owned, so sorting
 * allocates nothing once they have grown; stability makes the result
 * the same as std::stable_sort's.
 */
template <typename T, typename Less>
void
stableSortInPlace(std::vector<T> &v, std::vector<T> &buf, Less less)
{
    constexpr std::size_t run = 16;
    const std::size_t k = v.size();
    for (std::size_t lo = 0; lo < k; lo += run) {
        const std::size_t hi = std::min(k, lo + run);
        for (std::size_t i = lo + 1; i < hi; ++i) {
            const T x = v[i];
            std::size_t j = i;
            for (; j > lo && less(x, v[j - 1]); --j)
                v[j] = v[j - 1];
            v[j] = x;
        }
    }
    buf.resize(k);
    for (std::size_t width = run; width < k; width *= 2) {
        for (std::size_t lo = 0; lo < k; lo += 2 * width) {
            const std::size_t mid = std::min(k, lo + width);
            const std::size_t hi = std::min(k, lo + 2 * width);
            std::merge(v.begin() + long(lo), v.begin() + long(mid),
                       v.begin() + long(mid), v.begin() + long(hi),
                       buf.begin() + long(lo), less);
        }
        v.swap(buf);
    }
}

/**
 * The pre-ordering phase: produce group indices in scheduling order.
 *
 * The scheduling phase relies on the HRMS invariant: when a group is
 * placed, its already-placed neighbours are only predecessors or only
 * successors (recurrence members excepted). Two placement "fronts"
 * meeting at an unordered node would leave it a window that no II can
 * satisfy, so the ordering must never create such junctions. We achieve
 * that by always absorbing whole *transitive cones* in one direction:
 *
 *  - recurrences first, most critical (highest RecMII) first, each
 *    preceded by the nodes on directed paths from the ordered set to it
 *    (topological order: they see only predecessors) and followed by
 *    the paths back (reverse topological: only successors); since
 *    distinct SCCs cannot have paths both ways, these sets are disjoint;
 *  - then, repeatedly: the full descendant cone of the ordered set in
 *    topological order, or the full ancestor cone in reverse topological
 *    order, or a fresh seed (the most critical remaining group).
 *
 * A node of a descendant cone cannot have an ordered successor (that
 * would make it simultaneously an ancestor, i.e. a node between two
 * ordered nodes, which the hole-absorption step has already taken), and
 * symmetrically for ancestor cones, so the invariant holds everywhere
 * outside recurrences.
 *
 * Cones are classified a word at a time from two rows grown as groups
 * are appended: the groups below the ordered set (reachable from it by
 * one or more arcs) and above it (reaching it). Each row is grown by a
 * frontier search over the successor (predecessor) bit rows that stops
 * at groups already in it, so a whole ordering reads each group's bit
 * row about once, and no transitive closure of the group graph is
 * built. Every buffer lives in the workspace.
 */
class Ordering
{
  public:
    explicit Ordering(HrmsContext &ctx) : ctx_(ctx), ws_(ctx.ws) {}

    const std::vector<int> &
    run()
    {
        const int n = ctx_.n;
        ws_.orderedMask.reset(n);
        ws_.belowOrdered.reset(n);
        ws_.aboveOrdered.reset(n);
        ws_.absorbPos.assign(std::size_t(n), -1);
        ws_.order.clear();
        ws_.order.reserve(std::size_t(n));
        words_ = (n + 63) / 64;
        const int words = words_;
        ws_.frontier.reset(n);

        // Recurrences first, most critical first (criticality = RecMII
        // of the component), over the group graph's SCCs. The condensed
        // graph has no self-arcs (group-internal edges are skipped), so
        // a component is a recurrence exactly when it has several
        // members.
        const AdjScc &scc = ws_.scc;
        ws_.recurrenceRanks.clear();
        for (int c = 0; c < scc.numComps(); ++c) {
            if (scc.compSize(c) >= 2)
                ws_.recurrenceRanks.emplace_back(0, c);
        }
        // A lone recurrence needs no rank.
        if (ws_.recurrenceRanks.size() >= 2) {
            for (auto &[crit, c] : ws_.recurrenceRanks)
                crit = recurrenceRecMii(c);
        }
        stableSortInPlace(ws_.recurrenceRanks, ws_.rankBuf,
                          [&](const auto &a, const auto &b) {
                              if (a.first != b.first)
                                  return a.first > b.first;
                              return scc.compSize(a.second) >
                                     scc.compSize(b.second);
                          });

        // Constrain the criticality order to the topological order of
        // zero-distance reachability between components: if comp A has
        // a zero-distance path into comp B, A must be placed first.
        // Otherwise a member of A with a placed zero-distance successor
        // in B faces a fixed gap that no II can widen (carried edges
        // gain slack with II; zero-distance ones never do).
        orderCompsByZeroDistance();

        for (const auto &[crit, c] : ws_.recurrenceRanks) {
            (void)crit;
            // Membership of this recurrence and its cones.
            ws_.setMask.reset(n);
            ws_.belowSet.reset(n);
            ws_.aboveSet.reset(n);
            for (const int gi : compMembers(c)) {
                ws_.setMask.set(gi);
                growClosed(gi, ws_.succBits, ws_.belowSet.words());
                growClosed(gi, ws_.predBits, ws_.aboveSet.words());
            }
            if (!ws_.order.empty()) {
                // Paths ordered-set -> recurrence: only-preds nodes;
                // recurrence -> ordered-set: only-succs nodes.
                ws_.cone.clear();
                ws_.backCone.clear();
                const std::uint64_t *ordered = ws_.orderedMask.words();
                const std::uint64_t *set = ws_.setMask.words();
                const std::uint64_t *below = ws_.belowOrdered.words();
                const std::uint64_t *above = ws_.aboveOrdered.words();
                const std::uint64_t *belowSet = ws_.belowSet.words();
                const std::uint64_t *aboveSet = ws_.aboveSet.words();
                for (int w = 0; w < words; ++w) {
                    const std::uint64_t free = ~ordered[w] & ~set[w];
                    const std::uint64_t forward =
                        free & below[w] & aboveSet[w];
                    const std::uint64_t backward =
                        free & ~forward & belowSet[w] & above[w];
                    appendBits(w, forward, ws_.cone);
                    appendBits(w, backward, ws_.backCone);
                }
                absorbTopological(ws_.cone);
                absorbReverseTopological(ws_.backCone);
            }
            // The recurrence itself. Members are ordered topologically
            // over the *zero-distance* subgraph (acyclic inside any
            // legal SCC): a member's already-placed in-SCC successors
            // are then reachable only through carried edges, whose
            // slack grows with the II — so the [early, late] window of
            // a both-sided member always opens up at a feasible II.
            // Plain criticality order could trap a member between two
            // placed members at a fixed zero-distance gap that no II
            // can widen.
            ws_.cone.assign(compMembers(c).begin(), compMembers(c).end());
            absorbZeroDistanceTopological(ws_.cone);
        }

        // Everything else: cones around the ordered set.
        const std::uint64_t *ordered = ws_.orderedMask.words();
        const std::uint64_t *below = ws_.belowOrdered.words();
        const std::uint64_t *above = ws_.aboveOrdered.words();
        while (int(ws_.order.size()) < n) {
            if (collectCone([&](int w) {
                    return ~ordered[w] & below[w] & above[w];
                })) {
                // Holes: only possible through not-yet-ordered
                // recurrence remnants; order them feasibly (producers
                // first).
                absorbTopological(ws_.cone);
            } else if (collectCone([&](int w) {
                           return ~ordered[w] & below[w] & ~above[w];
                       })) {
                absorbTopological(ws_.cone);
            } else if (collectCone([&](int w) {
                           return ~ordered[w] & above[w] & ~below[w];
                       })) {
                absorbReverseTopological(ws_.cone);
            } else {
                // Disconnected from everything ordered: seed with the
                // most critical group (longest chain through it).
                int best = -1;
                for (int v = 0; v < n; ++v) {
                    if (ws_.orderedMask.test(v))
                        continue;
                    if (best < 0 ||
                        ws_.gAsap[std::size_t(v)] +
                                ws_.gHeight[std::size_t(v)] >
                            ws_.gAsap[std::size_t(best)] +
                                ws_.gHeight[std::size_t(best)]) {
                        best = v;
                    }
                }
                append(best);
            }
        }
        return ws_.order;
    }

  private:
    CsrAdj::Row
    compMembers(int c) const
    {
        const int *first = ws_.scc.compNodes(c);
        return {first, first + ws_.scc.compSize(c)};
    }

    /** Refill the cone with the groups of mask(w) over every word,
        lowest first; true when it is not empty. */
    template <typename Mask>
    bool
    collectCone(Mask mask)
    {
        ws_.cone.clear();
        for (int w = 0; w < words_; ++w)
            appendBits(w, mask(w), ws_.cone);
        return !ws_.cone.empty();
    }

    /** Append the groups of word w's set bits to out, lowest first.
        Bits at or past n are never set: every mask combined here
        includes a below / above row or a cone row, which hold only
        groups. */
    static void
    appendBits(int w, std::uint64_t bits, std::vector<int> &out)
    {
        while (bits) {
            out.push_back(w * 64 + countTrailingZeros(bits));
            bits &= bits - 1;
        }
    }

    void
    append(int v)
    {
        ws_.orderedMask.set(v);
        ws_.order.push_back(v);
        growClosed(v, ws_.succBits, ws_.belowOrdered.words());
        growClosed(v, ws_.predBits, ws_.aboveOrdered.words());
    }

    /**
     * Add to the row `in` every group reachable from v by one or more
     * arcs of the bit adjacency adj. The row must be closed under adj
     * (hold every successor of each of its groups), and it stays
     * closed, so the search stops at any group already in it. The
     * frontier holds the groups added whose own arcs are not yet
     * followed.
     */
    void
    growClosed(int v, const BitMatrix &adj, std::uint64_t *in)
    {
        std::uint64_t *frontier = ws_.frontier.words();
        const std::uint64_t *arcs = adj.row(v);
        for (int w = 0; w < words_; ++w) {
            frontier[w] = arcs[w] & ~in[w];
            in[w] |= frontier[w];
        }
        for (int w = 0; w < words_;) {
            if (!frontier[w]) {
                ++w;
                continue;
            }
            const int u = w * 64 + countTrailingZeros(frontier[w]);
            frontier[w] &= frontier[w] - 1;
            arcs = adj.row(u);
            for (int x = 0; x < words_; ++x) {
                const std::uint64_t added = arcs[x] & ~in[x];
                in[x] |= added;
                frontier[x] |= added;
            }
            w = 0;
        }
    }

    /**
     * RecMII of recurrence c. Every cycle through its member nodes uses
     * only arcs whose two groups lie in c, so the region is those arcs
     * of the probe's table, in edge-id order, over the members
     * numbered group by group.
     */
    long
    recurrenceRecMii(int c)
    {
        RecurrenceRegion region;
        ws_.regionLocalId.resize(std::size_t(ctx_.g.numNodes()));
        for (const int gi : compMembers(c)) {
            for (const NodeId v : ctx_.groups.group(gi).members) {
                ws_.regionLocalId[std::size_t(v)] = region.numNodes++;
                region.latencySum += ctx_.m.latency(ctx_.g.node(v).op);
            }
        }
        const std::vector<int> &compOf = ws_.scc.compOf;
        ws_.regionArcs.clear();
        for (const ArcTable::Arc &a : ws_.arcs.arcs()) {
            if (compOf[std::size_t(a.srcGroup)] == c &&
                compOf[std::size_t(a.dstGroup)] == c) {
                ws_.regionArcs.push_back(
                    {ws_.regionLocalId[std::size_t(a.src)],
                     ws_.regionLocalId[std::size_t(a.dst)],
                     a.weight + long(ctx_.ii) * a.distance, a.distance});
            }
        }
        region.first = ws_.regionArcs.data();
        region.last = region.first + ws_.regionArcs.size();
        return regionRecMii(region, 1, ws_.regionDist);
    }

    /** Component c has a zero-distance path into component d. */
    bool
    reaches0(int c, int d) const
    {
        for (const int b : compMembers(d)) {
            if (ws_.zeroReach.test(c, b))
                return true;
        }
        return false;
    }

    /**
     * Stable-topologically reorder recurrence components along
     * zero-distance reachability, keeping criticality order among
     * unrelated components: each step moves the first component no
     * other remaining one reaches to the front of the remainder.
     * Always makes progress: a zero-distance cycle between distinct
     * components would be a zero-distance cycle in the graph, which
     * verifyDdg forbids.
     */
    void
    orderCompsByZeroDistance()
    {
        auto &comps = ws_.recurrenceRanks;
        if (comps.size() < 2)
            return;
        // Row c of zeroReach: the groups some member of recurrence c
        // reaches by one or more zero-distance arcs.
        const int n = ctx_.n;
        ws_.zeroSucc.reset(n, n);
        for (int gi = 0; gi < n; ++gi) {
            ctx_.forEachNeighbour(gi, HrmsContext::Arcs::ZeroOut,
                                  [&](int to) { ws_.zeroSucc.set(gi, to); });
        }
        ws_.zeroReach.reset(ws_.scc.numComps(), n);
        for (const auto &[crit, c] : comps) {
            (void)crit;
            for (const int gi : compMembers(c))
                growClosed(gi, ws_.zeroSucc, ws_.zeroReach.row(c));
        }
        for (std::size_t step = 0; step < comps.size(); ++step) {
            std::size_t pick = comps.size();
            for (std::size_t i = step; i < comps.size() && pick == comps.size();
                 ++i) {
                bool ready = true;
                for (std::size_t j = step; j < comps.size(); ++j) {
                    if (j != i &&
                        reaches0(comps[j].second, comps[i].second)) {
                        ready = false;
                        break;
                    }
                }
                if (ready)
                    pick = i;
            }
            SWP_ASSERT(pick < comps.size(),
                       "zero-distance cycle between recurrences");
            std::rotate(comps.begin() + long(step),
                        comps.begin() + long(pick),
                        comps.begin() + long(pick) + 1);
        }
    }

    /** Critical groups first: ascending ASAP, descending height. */
    void
    sortByCriticality(std::vector<int> &set)
    {
        stableSortInPlace(set, ws_.sortBuf, [&](int a, int b) {
            if (ws_.gAsap[std::size_t(a)] != ws_.gAsap[std::size_t(b)])
                return ws_.gAsap[std::size_t(a)] <
                       ws_.gAsap[std::size_t(b)];
            return ws_.gHeight[std::size_t(a)] >
                   ws_.gHeight[std::size_t(b)];
        });
    }

    /**
     * Append the (sorted) set by Kahn's algorithm: member w waits for
     * every in-set u with an arc of `kind` from u to w. The pick is the
     * first ready member in set order; when none is ready (a cycle
     * inside the set), the first remaining member if breakCycles, else
     * a panic. Counts and the ready and remaining rows are indexed by
     * position in the set, so "first" is a lowest-set-bit scan. Counts
     * run over edges, not distinct groups: either way a count reaches
     * zero once its last in-set predecessor is appended.
     */
    void
    absorbInOrder(const std::vector<int> &set, HrmsContext::Arcs kind,
                  bool breakCycles)
    {
        const int k = int(set.size());
        for (int i = 0; i < k; ++i)
            ws_.absorbPos[std::size_t(set[std::size_t(i)])] = i;
        ws_.waitCount.assign(std::size_t(k), 0);
        for (const int u : set) {
            ctx_.forEachNeighbour(u, kind, [&](int w) {
                const int q = ws_.absorbPos[std::size_t(w)];
                if (q >= 0)
                    ++ws_.waitCount[std::size_t(q)];
            });
        }
        ws_.readyMask.reset(k);
        ws_.remainMask.reset(k);
        ws_.remainMask.setRange(0, k);
        for (int i = 0; i < k; ++i) {
            if (ws_.waitCount[std::size_t(i)] == 0)
                ws_.readyMask.set(i);
        }
        for (int placed = 0; placed < k; ++placed) {
            int p = ws_.readyMask.nextSetBit(0);
            if (p < 0) {
                SWP_ASSERT(breakCycles,
                           "zero-distance cycle inside a recurrence");
                p = ws_.remainMask.nextSetBit(0);
            }
            ws_.readyMask.clear(p);
            ws_.remainMask.clear(p);
            const int v = set[std::size_t(p)];
            append(v);
            ctx_.forEachNeighbour(v, kind, [&](int w) {
                const int q = ws_.absorbPos[std::size_t(w)];
                if (q >= 0 && --ws_.waitCount[std::size_t(q)] == 0 &&
                    ws_.remainMask.test(q)) {
                    ws_.readyMask.set(q);
                }
            });
        }
        for (const int v : set)
            ws_.absorbPos[std::size_t(v)] = -1;
    }

    /**
     * Append a recurrence component in topological order of its
     * internal zero-distance edges; ties by criticality.
     */
    void
    absorbZeroDistanceTopological(std::vector<int> &set)
    {
        sortByCriticality(set);
        absorbInOrder(set, HrmsContext::Arcs::ZeroOut, false);
    }

    /**
     * Append the whole set in topological order of its internal edges
     * (producers first); ties by criticality. Cycles inside the set
     * (unprocessed recurrence remnants) are broken by criticality.
     */
    void
    absorbTopological(std::vector<int> &set)
    {
        sortByCriticality(set);
        absorbInOrder(set, HrmsContext::Arcs::Out, true);
    }

    /**
     * Append the whole set in reverse topological order (consumers
     * first), so each member sees only successors when placed.
     */
    void
    absorbReverseTopological(std::vector<int> &set)
    {
        // Latest groups first: descending ASAP, ascending height.
        stableSortInPlace(set, ws_.sortBuf, [&](int a, int b) {
            if (ws_.gAsap[std::size_t(a)] != ws_.gAsap[std::size_t(b)])
                return ws_.gAsap[std::size_t(a)] >
                       ws_.gAsap[std::size_t(b)];
            return ws_.gHeight[std::size_t(a)] <
                   ws_.gHeight[std::size_t(b)];
        });
        absorbInOrder(set, HrmsContext::Arcs::In, true);
    }

    HrmsContext &ctx_;
    SchedWorkspace &ws_;
    /** Words per row of the group masks. */
    int words_ = 0;
};

/**
 * Issue cycles placement may use: every time, and every difference of
 * two times (normalize() shifts by the earliest), is then an int.
 */
constexpr long maxIssueCycle = std::numeric_limits<int>::max() / 2;

/**
 * Refuse a window of anchors [lo, hi] whose member times leave
 * [-maxIssueCycle, maxIssueCycle]. A carried edge moves a window by
 * II * distance, formed in long; wrapping it to int would place the
 * group billions of cycles away.
 */
void
checkIssueRange(const HrmsContext &ctx, const ComplexGroup &grp, long lo,
                long hi)
{
    // Members are sorted by offset, the first at offset 0.
    const long latest = hi + grp.offsets.back();
    if (lo >= -maxIssueCycle && latest <= maxIssueCycle)
        return;
    const bool below = lo < -maxIssueCycle;
    SWP_FATAL("loop '", ctx.g.name(), "': node n",
              below ? grp.members.front() : grp.members.back(),
              " would issue at cycle ", below ? lo : latest, " at II ",
              ctx.ii, ", outside the placement range [", -maxIssueCycle,
              ", ", maxIssueCycle, "]");
}

/** The placement phase. */
std::optional<Schedule>
place(HrmsContext &ctx, const std::vector<int> &order)
{
    Schedule sched(ctx.ii, ctx.g.numNodes());
    Mrt &mrt = ctx.ws.mrt;
    mrt.reset(ctx.m, ctx.ii);
    const ArcTable &arcs = ctx.ws.arcs;

    for (const int gi : order) {
        long early = negInf;
        long late = posInf;
        bool hasPred = false;
        bool hasSucc = false;
        for (const ArcTable::Bound &b : arcs.inArcs(gi)) {
            if (sched.scheduled(b.node)) {
                hasPred = true;
                early = std::max(early, sched.time(b.node) + b.delta);
            }
        }
        for (const ArcTable::Bound &b : arcs.outArcs(gi)) {
            if (sched.scheduled(b.node)) {
                hasSucc = true;
                late = std::min(late, sched.time(b.node) + b.delta);
            }
        }

        // The anchors tried, in order: up from early, down from late,
        // up through [early, late], or up from the group's ASAP; at
        // most II of them, since anchors II apart share every row.
        long first = early;
        long last = early + ctx.ii - 1;
        if (hasSucc && !hasPred) {
            first = late;
            last = late - ctx.ii + 1;
        } else if (hasPred && hasSucc) {
            last = std::min(late, last);
            if (last < first)
                return std::nullopt;
        } else if (!hasPred) {
            first = ctx.ws.gAsap[std::size_t(gi)];
            last = first + ctx.ii - 1;
        }
        const ComplexGroup &grp = ctx.groups.group(gi);
        checkIssueRange(ctx, grp, std::min(first, last),
                        std::max(first, last));
        if (!mrt.placeGroupFirstFit(ctx.g, grp, int(first), int(last),
                                    sched)) {
            return std::nullopt;
        }
    }

    sched.normalize();
    return sched;
}

} // namespace

std::optional<Schedule>
HrmsScheduler::scheduleAt(const Ddg &g, const Machine &m, int ii)
{
    if (g.numNodes() == 0)
        return std::nullopt;

    HrmsContext ctx(g, m, ii, ws_);
    if (!groupsInternallyFeasible(ws_.arcs, ctx.groups))
        return std::nullopt;

    ctx.analyze();
    Ordering ordering(ctx);
    const std::vector<int> &order = ordering.run();
    SWP_ASSERT(int(order.size()) == ctx.groups.numGroups(),
               "HRMS ordering lost groups");

    auto sched = place(ctx, order);
    if (!sched)
        return std::nullopt;

    std::string why;
    SWP_ASSERT(validateSchedule(g, m, *sched, &why),
               "HRMS produced an invalid schedule: ", why);
    return sched;
}

} // namespace swp
