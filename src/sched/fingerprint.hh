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
 * are deliberately excluded: no scheduler reads them.
 *
 * Hash equality is not graph equality; the paired *FingerprintEquivalent
 * predicates compare exactly the fingerprinted structure so memo hits
 * can be verified (in debug builds) and a collision fails loudly
 * instead of silently returning another loop's result.
 */

#ifndef SWP_SCHED_FINGERPRINT_HH
#define SWP_SCHED_FINGERPRINT_HH

#include <cstdint>
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
 * Machine identity for the memos. Names are not unique (two Machines
 * can share one), so the resource description the schedulers and bound
 * computations actually depend on is hashed.
 */
std::uint64_t machineFingerprint(const Machine &m);

/**
 * True when the two graphs agree on every field graphFingerprint
 * covers (so a memo entry for one is valid for the other). Shared
 * copy-on-write storage short-circuits to true.
 */
bool graphsFingerprintEquivalent(const Ddg &a, const Ddg &b);

/** Field-by-field counterpart of machineFingerprint. */
bool machinesFingerprintEquivalent(const Machine &a, const Machine &b);

} // namespace swp

#endif // SWP_SCHED_FINGERPRINT_HH
