/**
 * @file
 * The data dependence graph (DDG) of an innermost loop.
 *
 * Following Section 2.1 of the paper, a loop is a graph G = (V, E, delta)
 * where vertices are operations, edges are dependences, and delta maps
 * each edge to a dependence distance in iterations. Edges are classified
 * as register data dependences (only flow dependences, since register
 * allocation happens after scheduling), memory data dependences, and
 * control dependences.
 *
 * In addition to the paper's definitions, nodes carry the annotations the
 * spilling machinery of Section 4 needs: spill-load/spill-store origin,
 * non-spillable value marking, and the semantic reference a spill load
 * uses to recover the spilled value (needed by the validation simulator).
 */

#ifndef SWP_IR_DDG_HH
#define SWP_IR_DDG_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/opcode.hh"
#include "support/sanitize.hh"

namespace swp
{

class Ddg;

/** Defined in sched/fingerprint.cc; befriended for its cache slot. */
std::uint64_t graphFingerprint(const Ddg &g);

using NodeId = int;
using EdgeId = int;
using InvId = int;

constexpr NodeId invalidNode = -1;

/** Dependence kind (Section 2.1). */
enum class DepKind
{
    RegFlow,  ///< Register flow dependence: dst consumes src's value.
    Mem,      ///< Memory data dependence (store -> load ordering).
    Control,  ///< Control dependence (kept for generality).
};

/**
 * How a spill load recovers the value it reloads. Used by the validation
 * simulator to give spill code executable semantics.
 */
struct SpillRef
{
    enum class Kind
    {
        None,          ///< Not a spill load.
        StoreSlot,     ///< Reads the memory stream written by store #value.
        ReloadStream,  ///< Re-reads the input stream of original load
                       ///< #value (producer-is-load optimization).
        InvariantMem,  ///< Reads spilled loop-invariant #value.
    };

    Kind kind = Kind::None;
    int value = -1;  ///< Node or invariant id, per kind.
    int shift = 0;   ///< Iteration distance applied to the stream read.
};

/** Where a node came from. */
enum class NodeOrigin
{
    Original,    ///< Part of the source loop.
    SpillStore,  ///< Store inserted by the spiller.
    SpillLoad,   ///< Load inserted by the spiller.
};

/** An operation of the loop body. */
struct Node
{
    Opcode op = Opcode::Nop;
    std::string name;
    NodeOrigin origin = NodeOrigin::Original;

    /**
     * The value this node produces may not be selected for spilling.
     * Set for values produced by spill loads or consumed by spill stores
     * (Section 4.3's deadlock-avoidance rule).
     */
    bool nonSpillableValue = false;

    /** Semantic source for spill loads. */
    SpillRef spillRef;

    /** Loop invariants consumed by this operation. */
    std::vector<InvId> invariantUses;
};

/** A dependence between two operations. */
struct Edge
{
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    DepKind kind = DepKind::RegFlow;
    int distance = 0;  ///< delta(e): iterations between def and use.

    /**
     * Edge added by the spiller connecting a spill load/store to its
     * consumer/producer. Non-spillable edges force the endpoints to be
     * scheduled as a single "complex operation" at the exact offset
     * `fusedDelay` (Section 4.3).
     */
    bool nonSpillable = false;

    /**
     * Exact issue distance for fused edges; 0 means "the producer's
     * latency". The spiller staggers the delays of sibling reloads
     * feeding one consumer (latency, latency+1, ...) so they never
     * compete for the same functional unit in the same kernel row.
     */
    int fusedDelay = 0;

    /**
     * Cleared by Ddg::killEdge (spilling), the only way an edge dies.
     * A dead edge keeps its id and record but leaves both adjacency
     * lists; scans over the whole edge table must skip it themselves.
     */
    bool alive = true;
};

/** A loop-invariant value (one register for the whole loop, Section 2.3). */
struct Invariant
{
    std::string name;
    std::vector<NodeId> consumers;
    bool spillable = true;
    /** Spilled invariants live in memory and need no register. */
    bool spilled = false;
};

/**
 * A mutable data dependence graph with copy-on-write storage.
 *
 * Node ids are dense and stable. Edges may be killed (spilling) and new
 * edges/nodes appended. The adjacency lists hold live edges only, in
 * insertion (edge id) order: addEdge appends to them and killEdge, the
 * only way an edge dies, unlinks it. Walking outEdges/inEdges therefore
 * never meets a dead edge; the edge table (ids 0 .. numEdges()) keeps
 * dead records, so ids stay stable and table scans test Edge::alive.
 *
 * Copying a Ddg is O(1): the copy shares the source's immutable storage
 * and the first mutation through either handle detaches it (clones the
 * storage). This makes the spill driver's working copy and result
 * snapshots free for the no-spill majority of evaluation jobs. The
 * usual copy-on-write contract applies: a shared core is never written
 * (so concurrent const access through distinct handles is safe, and
 * distinct handles may be mutated from distinct threads — each detaches
 * first), and references returned by the non-const accessors are
 * invalidated by the next copy-from or structural mutation, exactly
 * like vector iterators.
 */
class Ddg
{
  public:
    explicit Ddg(std::string name = "loop")
        : core_(std::make_shared<Core>())
    {
        core_->name = std::move(name);
    }

    Ddg(const Ddg &) = default;
    Ddg &operator=(const Ddg &) = default;

    /** Moved-from graphs stay valid (empty), as before copy-on-write:
        a null core would turn every accessor into a null dereference. */
    Ddg(Ddg &&o) : core_(std::move(o.core_))
    {
        o.core_ = std::make_shared<Core>();
    }

    Ddg &
    operator=(Ddg &&o)
    {
        if (this != &o) {
            core_ = std::move(o.core_);
            o.core_ = std::make_shared<Core>();
        }
        return *this;
    }

    const std::string &name() const { return core_->name; }
    void setName(std::string n) { mut().name = std::move(n); }

    /**
     * True when both handles share one storage core (they compare equal
     * and reads alias). Cleared by the first mutation on either side.
     */
    bool sharesStorageWith(const Ddg &o) const { return core_ == o.core_; }

    /** @name Construction */
    /// @{
    NodeId addNode(Opcode op, std::string name = "",
                   NodeOrigin origin = NodeOrigin::Original);
    EdgeId addEdge(NodeId src, NodeId dst, DepKind kind, int distance = 0,
                   bool non_spillable = false);
    InvId addInvariant(std::string name = "");
    /** Record that node uses the given invariant. */
    void addInvariantUse(InvId inv, NodeId node);
    /**
     * Kill a live edge: clear Edge::alive and unlink it from its
     * source's out-list and its destination's in-list. Killing a dead
     * edge panics.
     */
    void killEdge(EdgeId e);
    /// @}

    /** @name Accessors */
    /// @{
    int numNodes() const { return int(core_->nodes.size()); }
    int numEdges() const { return int(core_->edges.size()); }
    int numInvariants() const { return int(core_->invariants.size()); }

    Node &node(NodeId n) { return mut().nodes[std::size_t(n)]; }
    const Node &node(NodeId n) const { return core_->nodes[std::size_t(n)]; }
    Edge &edge(EdgeId e) { return mut().edges[std::size_t(e)]; }
    const Edge &edge(EdgeId e) const { return core_->edges[std::size_t(e)]; }
    Invariant &invariant(InvId i) { return mut().invariants[std::size_t(i)]; }
    const Invariant &
    invariant(InvId i) const
    {
        return core_->invariants[std::size_t(i)];
    }

    /** @name Adjacency
        Live edge ids of a node, in insertion (ascending id) order. The
        reference is invalidated by the next addEdge/killEdge on the
        same handle and, since a mutation may detach the storage, by
        any non-const access through it. A loop that mutates the graph
        iterates a snapshot it takes explicitly, e.g. valueUses(). */
    /// @{
    const std::vector<EdgeId> &
    outEdges(NodeId n) const
    {
        return core_->out[std::size_t(n)];
    }
    const std::vector<EdgeId> &
    inEdges(NodeId n) const
    {
        return core_->in[std::size_t(n)];
    }
    /// @}

    /** Live register-flow out-edges: the uses of n's value (a copy,
        safe to iterate while mutating the graph). */
    std::vector<EdgeId> valueUses(NodeId n) const;

    /** Number of live register-flow out-edges. */
    int numValueUses(NodeId n) const;

    /** Count of live (non-spilled) loop invariants. */
    int numLiveInvariants() const;

    /** Number of memory operations (loads + stores), for traffic stats. */
    int numMemOps() const;
    /// @}

    /** Human-readable dump for debugging. */
    std::string dump() const;

  private:
    /** The shared storage; immutable while more than one handle holds it. */
    struct Core
    {
        Core() = default;
        /** Clones carry the fingerprint: content-identical on copy
            (mut() invalidates before the cloner's write lands). */
        Core(const Core &o)
            : name(o.name), nodes(o.nodes), edges(o.edges),
              invariants(o.invariants), out(o.out), in(o.in),
              cachedFp(o.cachedFp.load(std::memory_order_relaxed))
        {
        }
        Core &operator=(const Core &) = delete;

        std::string name;
        std::vector<Node> nodes;
        std::vector<Edge> edges;
        std::vector<Invariant> invariants;
        std::vector<std::vector<EdgeId>> out;  ///< Live edges, ascending.
        std::vector<std::vector<EdgeId>> in;   ///< Live edges, ascending.

        /**
         * Memoized graphFingerprint of this core (0 = not computed).
         * mut() intercepts every mutation and resets it, so the memos'
         * per-probe fingerprinting is O(1) for an unchanged graph.
         * Mutating through a reference held across other Ddg calls
         * bypasses this (and the detach) — don't.
         */
        mutable std::atomic<std::uint64_t> cachedFp{0};
    };

    /** Detach-on-mutate: clone the core iff another handle shares it. */
    Core &
    mut()
    {
#if SWP_TSAN_ENABLED
        // TSan neither models the standalone acquire fence below (gcc
        // rejects it outright under -Werror=tsan) nor the relaxed
        // use-count load it pairs through, so the sole-owner in-place
        // mutation would surface as a false race against the previous
        // owner's reads. Detach unconditionally instead: cloning only
        // *reads* the old core (reads cannot race with reads), and the
        // old core's destruction is ordered by shared_ptr's own
        // acq_rel reference counting, which TSan does model. Same
        // results, sole-owner fast path traded for a clone.
        core_ = std::make_shared<Core>(*core_);
#else
        if (core_.use_count() > 1) {
            core_ = std::make_shared<Core>(*core_);
        } else {
            // Pairs with the release decrement of the last other
            // owner's shared_ptr: its reads of this core (e.g. the
            // clone it took while detaching on another thread) happen
            // before the in-place writes that follow.
            std::atomic_thread_fence(std::memory_order_acquire);
        }
#endif
        core_->cachedFp.store(0, std::memory_order_relaxed);
        return *core_;
    }

    friend std::uint64_t graphFingerprint(const Ddg &);

    std::shared_ptr<Core> core_;
};

} // namespace swp

#endif // SWP_IR_DDG_HH
