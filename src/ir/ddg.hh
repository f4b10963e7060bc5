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
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/opcode.hh"

namespace swp
{

class Ddg;

/** Defined in sched/fingerprint.cc; befriended for its cache slot. */
std::uint64_t graphFingerprint(const Ddg &g);

using NodeId = int;
using EdgeId = int;
using InvId = int;

constexpr NodeId invalidNode = -1;
constexpr EdgeId invalidEdge = -1;

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

    /**
     * Links of the adjacency lists: the next live edge of the source's
     * out-list and of the destination's in-list, or invalidEdge at the
     * end (always, once the edge is dead). Ddg maintains them; nothing
     * else writes them.
     */
    EdgeId nextOut = invalidEdge;
    EdgeId nextIn = invalidEdge;
};

/**
 * One node's out-list or in-list: the live edge ids reached from a
 * head through the edge table's `Next` links. A forward range that
 * offers range-for and empty(), nothing more.
 */
template <EdgeId Edge::*Next>
class EdgeList
{
  public:
    class iterator
    {
      public:
        EdgeId operator*() const { return id_; }

        iterator &
        operator++()
        {
            id_ = edges_[std::size_t(id_)].*Next;
            return *this;
        }

        bool operator!=(const iterator &o) const { return id_ != o.id_; }

      private:
        friend class EdgeList;
        iterator(const Edge *edges, EdgeId id) : edges_(edges), id_(id) {}

        const Edge *edges_;
        EdgeId id_;
    };

    iterator begin() const { return {edges_, head_}; }
    iterator end() const { return {edges_, invalidEdge}; }
    bool empty() const { return head_ == invalidEdge; }

  private:
    friend class Ddg;
    EdgeList(const Edge *edges, EdgeId head) : edges_(edges), head_(head) {}

    const Edge *edges_;
    EdgeId head_;
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
 * Cache slot for a graph's fingerprint (0 = not computed). Atomic: the
 * pool's workers fingerprint one shared suite graph concurrently. A
 * copy or move target starts empty and a moved-from slot is cleared,
 * so no slot outlives the content it was computed from.
 */
struct FingerprintSlot
{
    FingerprintSlot() = default;
    FingerprintSlot(const FingerprintSlot &) {}
    FingerprintSlot(FingerprintSlot &&o) noexcept { o.clear(); }

    FingerprintSlot &
    operator=(const FingerprintSlot &)
    {
        clear();
        return *this;
    }

    FingerprintSlot &
    operator=(FingerprintSlot &&o) noexcept
    {
        clear();
        o.clear();
        return *this;
    }

    void clear() { value.store(0, std::memory_order_relaxed); }

    mutable std::atomic<std::uint64_t> value{0};
};

/**
 * A mutable data dependence graph; an ordinary value type.
 *
 * Node ids are dense and stable. Edges may be killed (spilling) and new
 * edges/nodes appended. Each node's out-list and in-list hold its live
 * edges only, in insertion (ascending id) order. The lists are linked
 * through the edge table (Edge::nextOut, Edge::nextIn) from one
 * head/tail record per node, so no node holds a heap list of edge ids.
 * addEdge links a new edge at both tails; killEdge, the only way an
 * edge dies, unlinks it by walking its two lists (O(degree)).
 * Walking outEdges/inEdges therefore never meets a dead edge; the edge
 * table (ids 0 .. numEdges()) keeps dead records, so ids stay stable
 * and table scans test Edge::alive.
 *
 * What ends a walk: addNode, addEdge and killEdge each invalidate every
 * range outEdges/inEdges returned before (the tables may move and the
 * links change). A loop that mutates the graph iterates a snapshot it
 * takes first, such as valueUses().
 *
 * Every mutator, the non-const accessors included, clears the cached
 * fingerprint, so the memos' per-probe graphFingerprint is O(1) for an
 * unchanged graph. Writing through a reference held across other Ddg
 * calls bypasses this — don't. A copy is deep; the spill driver copies
 * the loop only once spilling rewrites it.
 */
class Ddg
{
  public:
    explicit Ddg(std::string name = "loop") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    void
    setName(std::string n)
    {
        fp_.clear();
        name_ = std::move(n);
    }

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
    int numNodes() const { return int(nodes_.size()); }
    int numEdges() const { return int(edges_.size()); }
    int numInvariants() const { return int(invariants_.size()); }

    Node &
    node(NodeId n)
    {
        fp_.clear();
        return nodes_[std::size_t(n)];
    }
    const Node &node(NodeId n) const { return nodes_[std::size_t(n)]; }

    Edge &
    edge(EdgeId e)
    {
        fp_.clear();
        return edges_[std::size_t(e)];
    }
    const Edge &edge(EdgeId e) const { return edges_[std::size_t(e)]; }

    Invariant &
    invariant(InvId i)
    {
        fp_.clear();
        return invariants_[std::size_t(i)];
    }
    const Invariant &
    invariant(InvId i) const
    {
        return invariants_[std::size_t(i)];
    }

    /** @name Adjacency
        Live edge ids of a node, in insertion (ascending id) order. The
        range is invalidated by the next addNode/addEdge/killEdge. */
    /// @{
    EdgeList<&Edge::nextOut>
    outEdges(NodeId n) const
    {
        return {edges_.data(), lists_[std::size_t(n)].out.head};
    }
    EdgeList<&Edge::nextIn>
    inEdges(NodeId n) const
    {
        return {edges_.data(), lists_[std::size_t(n)].in.head};
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
    friend std::uint64_t graphFingerprint(const Ddg &);

    std::string name_;
    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::vector<Invariant> invariants_;
    /** First and last live edge of one list. */
    struct ListEnds
    {
        EdgeId head = invalidEdge;
        EdgeId tail = invalidEdge;
    };

    /** A node's out-list and in-list. */
    struct NodeLists
    {
        ListEnds out;
        ListEnds in;
    };

    std::vector<NodeLists> lists_;  ///< One per node.
    FingerprintSlot fp_;
};

} // namespace swp

#endif // SWP_IR_DDG_HH
