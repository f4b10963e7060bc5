/**
 * @file
 * Structural fingerprints of the inputs scheduling depends on.
 *
 * The batch driver memoizes per-(loop, machine) results — the MII
 * bound and whole (II, scheduler) probe outcomes — across hundreds of
 * thousands of grid cells. Graphs are rebuilt or transformed between
 * cells and machine names are not unique, so the memo keys are
 * 64-bit FNV-1a fingerprints of the *content* both computations
 * actually read: node opcodes, live-edge structure (endpoints, kind,
 * distance, fusion) and the machine's resource/latency description.
 * Names of individual nodes, spill annotations and invariant details
 * are deliberately excluded: no scheduler reads them. A machine's key
 * is its stored Machine::fingerprint(), an O(1) read per request.
 *
 * Hash equality is not graph equality; graphsFingerprintEquivalent and
 * Machine::operator== compare exactly the fingerprinted structure so
 * memo hits can be verified (in debug builds) and a collision fails
 * loudly instead of silently returning another loop's result.
 */

#ifndef SWP_SCHED_FINGERPRINT_HH
#define SWP_SCHED_FINGERPRINT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "ir/ddg.hh"
#include "machine/machine.hh"

namespace swp
{

/**
 * Key verification default for fingerprint-keyed caches: in debug
 * builds every hit structurally compares the probed graph/machine
 * against the ones that created the entry, so a 64-bit fingerprint
 * collision panics instead of silently returning another loop's
 * result. Release builds trust the hash.
 */
#ifdef NDEBUG
inline constexpr bool kVerifyMemoKeys = false;
#else
inline constexpr bool kVerifyMemoKeys = true;
#endif

/** Incremental FNV-1a hasher for memo keys. */
class Fingerprint
{
  public:
    void
    mix(std::uint64_t v)
    {
        hash_ ^= v;
        hash_ *= 0x100000001b3ull;
    }

    void
    mix(const std::string &s)
    {
        mix(std::uint64_t(s.size()));
        for (const char c : s)
            mix(std::uint64_t(static_cast<unsigned char>(c)));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Fingerprint of the scheduling-relevant structure of a graph. */
std::uint64_t graphFingerprint(const Ddg &g);

/**
 * True when the two graphs agree on every field graphFingerprint
 * covers (so a memo entry for one is valid for the other).
 */
bool graphsFingerprintEquivalent(const Ddg &a, const Ddg &b);

/**
 * The graph and machine a fingerprint-keyed memo entry was computed
 * from, kept so that every hit can be checked against them. Only a
 * memo that verifies its keys records one; otherwise the witness is an
 * empty pointer. Shared, because every hit returns a copy of its entry.
 */
class KeyWitness
{
  public:
    KeyWitness() = default;

    /** Deep copies of g and m when verify is set; empty otherwise. */
    KeyWitness(bool verify, const Ddg &g, const Machine &m);

    /**
     * Panic unless (g, m) is fingerprint-equivalent to the recorded
     * pair; an empty witness checks nothing. `memo` names the cache
     * in the message.
     */
    void check(const char *memo, const Ddg &g, const Machine &m) const;

  private:
    struct Inputs
    {
        Ddg graph;
        Machine machine;
    };
    std::shared_ptr<const Inputs> inputs_;
};

} // namespace swp

#endif // SWP_SCHED_FINGERPRINT_HH
