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
 * All sizable state — the condensed group-graph adjacency, the
 * bit-packed reachability matrices (reach over all edges, its
 * transpose, and zero-distance-only reach0), the priority buffers and
 * the MRT — lives in the scheduler's SchedWorkspace and is cleared,
 * not reallocated, for each probe.
 */
struct HrmsContext
{
    const Ddg &g;
    const Machine &m;
    const int ii;
    SchedWorkspace &ws;
    GroupSet &groups;  ///< ws.groups, rebuilt for this probe.
    int n = 0;         ///< Number of complex groups.

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
        buildGroupGraph();

        ws.prio.compute(g, m, ii);
        ws.gAsap.assign(std::size_t(n), negInf);
        ws.gHeight.assign(std::size_t(n), negInf);
        for (NodeId v = 0; v < g.numNodes(); ++v) {
            const int gi = groups.groupOf(v);
            const long off = groups.offsetOf(v);
            ws.gAsap[std::size_t(gi)] =
                std::max(ws.gAsap[std::size_t(gi)],
                         ws.prio.asap[std::size_t(v)] - off);
            ws.gHeight[std::size_t(gi)] =
                std::max(ws.gHeight[std::size_t(gi)],
                         ws.prio.height[std::size_t(v)] + off);
        }
    }

    /** The zero-distance subgraph and its closure, which only the
        ordering of recurrences reads: built when the graph has one. */
    void
    buildZeroDistanceGraph()
    {
        ws.succ0.build(n, [&](auto &&emit) {
            for (const auto &[a, b] : ws.arcs0)
                emit(a, b);
        });
        auto succ0Row = [&](int v) { return ws.succ0.row(v); };
        stronglyConnectedComponents(n, succ0Row, ws.scc0, ws.sccScratch);
        transitiveClosure(ws.scc0, succ0Row, false, ws.reach0);
    }

  private:
    /**
     * Build the condensed graph over complex groups: deduplicated arcs
     * (duplicate (a, b) pairs are filtered by a bit matrix instead of a
     * linear scan) as CSR adjacency, plus transitive reachability as
     * word-packed bit rows.
     */
    void
    buildGroupGraph()
    {
        ws.arcs.clear();
        ws.arcs0.clear();
        ws.edgeSeen.reset(n, n);
        ws.edgeSeen0.reset(n, n);
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (!edge.alive)
                continue;
            const int a = groups.groupOf(edge.src);
            const int b = groups.groupOf(edge.dst);
            if (a == b)
                continue;
            if (!ws.edgeSeen.test(a, b)) {
                ws.edgeSeen.set(a, b);
                ws.arcs.emplace_back(a, b);
            }
            if (edge.distance == 0 && !ws.edgeSeen0.test(a, b)) {
                ws.edgeSeen0.set(a, b);
                ws.arcs0.emplace_back(a, b);
            }
        }
        ws.succ.build(n, [&](auto &&emit) {
            for (const auto &[a, b] : ws.arcs)
                emit(a, b);
        });
        ws.pred.build(n, [&](auto &&emit) {
            for (const auto &[a, b] : ws.arcs)
                emit(b, a);
        });

        // Closures over the SCC decomposition, which also drives the
        // ordering's recurrence ranking; reachT, the transpose of
        // reach, answers "is v reachable from any of set S" (a column
        // of reach is a row of the transpose).
        auto succRow = [&](int v) { return ws.succ.row(v); };
        stronglyConnectedComponents(n, succRow, ws.scc, ws.sccScratch);
        transitiveClosure(ws.scc, succRow, false, ws.reach);
        transitiveClosure(
            ws.scc, [&](int v) { return ws.pred.row(v); }, true, ws.reachT);
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
 * are appended: the groups below the ordered set (OR of their reach
 * rows) and above it (OR of their reachT rows). Every buffer lives in
 * the workspace.
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
        const int words = ws_.reach.wordsPerRow();

        // Recurrences first, most critical first (criticality = RecMII
        // of the component), over the group graph's SCCs. The condensed
        // graph has no self-arcs (group-internal edges are skipped), so
        // a component is a recurrence exactly when it has several
        // members.
        const AdjScc &scc = ws_.scc;
        ws_.recurrenceRanks.clear();
        for (int c = 0; c < scc.numComps(); ++c) {
            if (scc.compSize(c) < 2)
                continue;
            ws_.recurrenceNodes.clear();
            for (const int gi : compMembers(c)) {
                const auto &grp = ctx_.groups.group(gi);
                ws_.recurrenceNodes.insert(ws_.recurrenceNodes.end(),
                                           grp.members.begin(),
                                           grp.members.end());
            }
            const long crit =
                recMiiOfComponent(ctx_.g, ctx_.m, ws_.recurrenceNodes,
                                  ws_.recurrences);
            ws_.recurrenceRanks.emplace_back(crit, c);
        }
        if (!ws_.recurrenceRanks.empty())
            ctx_.buildZeroDistanceGraph();
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
                ws_.reach.orRowInto(gi, ws_.belowSet.words());
                ws_.reachT.orRowInto(gi, ws_.aboveSet.words());
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
        for (int w = 0; w < ws_.reach.wordsPerRow(); ++w)
            appendBits(w, mask(w), ws_.cone);
        return !ws_.cone.empty();
    }

    /** Append the groups of word w's set bits to out, lowest first.
        Bits at or past n are never set: every mask combined here
        includes a reach row or a cone row, which hold only groups. */
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
        ws_.reach.orRowInto(v, ws_.belowOrdered.words());
        ws_.reachT.orRowInto(v, ws_.aboveOrdered.words());
    }

    /** Component c has a zero-distance path into component d. */
    bool
    reaches0(int c, int d) const
    {
        for (const int a : compMembers(c)) {
            for (const int b : compMembers(d)) {
                if (ws_.reach0.test(a, b))
                    return true;
            }
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
     * every in-set u with w in release.row(u). The pick is the first
     * ready member in set order; when none is ready (a cycle inside the
     * set), the first remaining member if breakCycles, else a panic.
     * Counts and the ready and remaining rows are indexed by position
     * in the set, so "first" is a lowest-set-bit scan.
     */
    void
    absorbInOrder(const std::vector<int> &set, const CsrAdj &release,
                  bool breakCycles)
    {
        const int k = int(set.size());
        for (int i = 0; i < k; ++i)
            ws_.absorbPos[std::size_t(set[std::size_t(i)])] = i;
        ws_.waitCount.assign(std::size_t(k), 0);
        for (const int u : set) {
            for (const int w : release.row(u)) {
                const int q = ws_.absorbPos[std::size_t(w)];
                if (q >= 0)
                    ++ws_.waitCount[std::size_t(q)];
            }
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
            for (const int w : release.row(v)) {
                const int q = ws_.absorbPos[std::size_t(w)];
                if (q >= 0 && --ws_.waitCount[std::size_t(q)] == 0 &&
                    ws_.remainMask.test(q)) {
                    ws_.readyMask.set(q);
                }
            }
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
        absorbInOrder(set, ws_.succ0, false);
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
        absorbInOrder(set, ws_.succ, true);
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
        absorbInOrder(set, ws_.pred, true);
    }

    HrmsContext &ctx_;
    SchedWorkspace &ws_;
};

/** The placement phase. */
std::optional<Schedule>
place(HrmsContext &ctx, const std::vector<int> &order)
{
    Schedule sched(ctx.ii, ctx.g.numNodes());
    Mrt &mrt = ctx.ws.mrt;
    mrt.reset(ctx.m, ctx.ii);

    for (const int gi : order) {
        const ComplexGroup &grp = ctx.groups.group(gi);

        long early = negInf;
        long late = posInf;
        bool hasPred = false;
        bool hasSucc = false;
        for (std::size_t i = 0; i < grp.members.size(); ++i) {
            const NodeId v = grp.members[i];
            const long off = grp.offsets[i];
            for (EdgeId e : ctx.g.inEdgeIds(v)) {
                const Edge &edge = ctx.g.edge(e);
                if (!edge.alive ||
                    ctx.groups.groupOf(edge.src) == gi ||
                    !sched.scheduled(edge.src)) {
                    continue;
                }
                hasPred = true;
                const long bound = sched.time(edge.src) +
                                   ctx.m.latency(ctx.g.node(edge.src).op) -
                                   long(ctx.ii) * edge.distance - off;
                early = std::max(early, bound);
            }
            for (EdgeId e : ctx.g.outEdgeIds(v)) {
                const Edge &edge = ctx.g.edge(e);
                if (!edge.alive ||
                    ctx.groups.groupOf(edge.dst) == gi ||
                    !sched.scheduled(edge.dst)) {
                    continue;
                }
                hasSucc = true;
                const long bound = sched.time(edge.dst) -
                                   ctx.m.latency(ctx.g.node(v).op) +
                                   long(ctx.ii) * edge.distance - off;
                late = std::min(late, bound);
            }
        }

        bool placed = false;
        if (hasPred && !hasSucc) {
            for (long t = early; t < early + ctx.ii; ++t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        } else if (hasSucc && !hasPred) {
            for (long t = late; t > late - ctx.ii; --t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        } else if (hasPred && hasSucc) {
            const long hi = std::min(late, early + ctx.ii - 1);
            for (long t = early; t <= hi; ++t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        } else {
            const long start = ctx.ws.gAsap[std::size_t(gi)];
            for (long t = start; t < start + ctx.ii; ++t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        }
        if (!placed)
            return std::nullopt;
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
    if (!iiFeasibleForRecurrences(g, m, ii, ws_.recurrences))
        return std::nullopt;

    HrmsContext ctx(g, m, ii, ws_);
    if (!groupsInternallyFeasible(g, m, ctx.groups, ii))
        return std::nullopt;

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

std::vector<int>
HrmsScheduler::orderingForTest(const Ddg &g, const Machine &m, int ii)
{
    HrmsContext ctx(g, m, ii, ws_);
    Ordering ordering(ctx);
    return ordering.run();
}

} // namespace swp
