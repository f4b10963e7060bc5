/**
 * @file
 * Dataflow value semantics and the sequential reference interpreter.
 *
 * Every operation is given an executable meaning over 64-bit tokens so
 * that a software-pipelined execution of a (possibly spill-transformed)
 * loop can be checked against the sequential execution of the original:
 *
 *  - an original load produces a deterministic per-(node, iteration)
 *    stream token (the content of the array element it reads);
 *  - a loop invariant is a per-invariant token;
 *  - a compute op hashes its opcode, node and input multiset (Copy is
 *    the identity);
 *  - a store's datum is its single register input (or the hashed
 *    multiset when it has several);
 *  - loop-carried reads of iterations before the first one see
 *    deterministic live-in tokens;
 *  - spill loads recover exactly the token their SpillRef denotes.
 *
 * Spill rewriting preserves, by construction, the token every original
 * consumer sees — so comparing the datum streams of the original store
 * operations between the reference and a pipelined simulation validates
 * scheduling, register allocation and spill code all at once.
 */

#ifndef SWP_SIM_DATAFLOW_HH
#define SWP_SIM_DATAFLOW_HH

#include <cstdint>
#include <map>
#include <vector>

#include "ir/ddg.hh"

namespace swp
{

/** Deterministic 64-bit mixing (splitmix64 finalizer). */
std::uint64_t mix64(std::uint64_t x);

/** Token an original load delivers at an iteration (any, incl. < 0). */
std::uint64_t loadStreamValue(NodeId load, long iteration);

/** Token of a loop invariant. */
std::uint64_t invariantValue(InvId inv);

/** Live-in token of a non-load value instance from before the loop. */
std::uint64_t liveInValue(NodeId producer, long iteration);

/**
 * Combine the sorted operand multiset of a compute/store/copy node into
 * its result token. Shared by the oracle and the pipelined simulator so
 * the two semantics can never drift apart: a store's datum and a copy's
 * result are their single operand; everything else hashes opcode, node
 * and operands.
 */
std::uint64_t combineOperands(Opcode op, NodeId n,
                              const std::vector<std::uint64_t> &inputs);

/**
 * Lazy dataflow oracle for one graph: the token of any value instance,
 * any iteration. Usable both as the sequential reference (on the
 * original graph) and as the expected-value oracle inside the pipelined
 * simulator (on the transformed graph).
 */
class DataflowOracle
{
  public:
    explicit DataflowOracle(const Ddg &g) : g_(g) {}

    /** Token produced by node n in iteration i (memoized). */
    std::uint64_t value(NodeId n, long iteration);

    /** Datum stream of a store node over [0, iterations). */
    std::vector<std::uint64_t> storeStream(NodeId store, long iterations);

  private:
    std::uint64_t compute(NodeId n, long iteration);

    const Ddg &g_;
    std::map<std::pair<NodeId, long>, std::uint64_t> memo_;
};

/**
 * Sequential reference result: datum streams of all original stores.
 * Keyed by store node id.
 */
std::map<NodeId, std::vector<std::uint64_t>>
referenceStoreStreams(const Ddg &g, long iterations);

} // namespace swp

#endif // SWP_SIM_DATAFLOW_HH
