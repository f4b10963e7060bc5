/**
 * @file
 * A thread-safe, lock-striped memo cache with single-flight
 * computation.
 *
 * The batch driver's memos (MII bounds, schedule probes) are hit
 * by every worker of the pool. A plain check-compute-insert memo lets
 * two workers race to compute the same key — both pay the (expensive)
 * computation and one insert silently wins. This cache arbitrates at
 * insertion time instead: exactly one caller computes each key while
 * the others block on that entry, so duplicate computation is
 * structurally impossible. The stats() counters expose that guarantee
 * to the tests (computes == entries at rest, absent failed computes).
 *
 * Entries live for the life of the cache: the working set of a grid
 * evaluation is the grid itself. Keys are sharded across independent
 * lock stripes by a fingerprint hash, so workers looking up unrelated
 * keys never touch the same mutex, and a completed entry is served
 * under a shared (reader) lock, so N threads hammering one hot key read
 * it in parallel. A hot-key microbenchmark favours a single mutex, but
 * end to end on a 4-thread grid the stripes win.
 */

#ifndef SWP_SUPPORT_SINGLEFLIGHT_HH
#define SWP_SUPPORT_SINGLEFLIGHT_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace swp
{

/**
 * Seconds this thread has spent blocked waiting for another thread's
 * single-flight computation to land. The per-worker perf counters read
 * this before/after each job to split wall time into "scheduling" vs
 * "waiting on the memo" without any extra plumbing through the memos.
 */
inline double &
singleFlightWaitSeconds()
{
    thread_local double seconds = 0.0;
    return seconds;
}

/** Observability counters of a SingleFlightCache. */
struct SingleFlightStats
{
    /** Total lookups. */
    long requests = 0;
    /** Computations actually run (failed ones included). */
    long computes = 0;
    /** Distinct keys currently cached. Absent failed computations
        (which count in computes but leave no entry), computes -
        entries counts duplicate computations — provably zero. */
    long entries = 0;
};

namespace detail
{

/**
 * Stripe-selection hash over memo keys (integers, pairs and tuples of
 * integers — the shapes the driver's fingerprint keys take). The
 * splitmix-style finalizer spreads even near-identical fingerprints
 * across stripes.
 */
inline std::uint64_t
stripeMix(std::uint64_t h, std::uint64_t v)
{
    v += 0x9e3779b97f4a7c15ULL;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
    v ^= v >> 31;
    return (h * 1099511628211ULL) ^ v;
}

template <typename T,
          std::enable_if_t<std::is_integral<T>::value ||
                               std::is_enum<T>::value,
                           int> = 0>
std::uint64_t
stripeFingerprint(const T &v)
{
    return stripeMix(0, static_cast<std::uint64_t>(v));
}

template <typename A, typename B>
std::uint64_t stripeFingerprint(const std::pair<A, B> &p);
template <typename... Ts>
std::uint64_t stripeFingerprint(const std::tuple<Ts...> &t);

template <typename A, typename B>
std::uint64_t
stripeFingerprint(const std::pair<A, B> &p)
{
    return stripeMix(stripeFingerprint(p.first), stripeFingerprint(p.second));
}

template <typename Tuple, std::size_t... I>
std::uint64_t
stripeFingerprintTuple(const Tuple &t, std::index_sequence<I...>)
{
    std::uint64_t h = 0;
    ((h = stripeMix(h, stripeFingerprint(std::get<I>(t)))), ...);
    return h;
}

template <typename... Ts>
std::uint64_t
stripeFingerprint(const std::tuple<Ts...> &t)
{
    return stripeFingerprintTuple(t, std::index_sequence_for<Ts...>{});
}

} // namespace detail

/**
 * Map from Key to Value where each key's value is computed exactly
 * once, by the first requester; concurrent requesters for the same key
 * wait for that computation instead of repeating it. The map is split
 * into next-pow2(2×threads) stripes, each with its own lock.
 *
 * stats() takes every stripe lock simultaneously (in index order)
 * before reading a single counter, so the snapshot is consistent
 * across stripes: a concurrent reader can never see stripe 0 after an
 * insertion but stripe 3 before it. At quiescence computes == entries
 * exactly (absent failed computes); mid-run a snapshot may observe
 * computes < entries for keys whose computation is still in flight
 * (the entry exists, the compute counter lands last), never the
 * reverse.
 */
template <typename Key, typename Value>
class SingleFlightCache
{
  public:
    using Stats = SingleFlightStats;

    /** threadsHint sizes the stripe array: next-pow2(2×threads),
        clamped to [1, 256]. */
    explicit SingleFlightCache(int threadsHint = 1)
        : stripes_(stripeCountFor(threadsHint))
    {
    }

    std::size_t stripeCount() const { return stripes_.size(); }

    /**
     * The cached value for key; when absent, compute() fills it. The
     * first requester of a key runs compute() (without holding any
     * stripe lock); later requesters get the cached copy, after
     * onHit(value) — the hook where callers verify the hit (e.g. a
     * debug key collision check). A compute() exception propagates to
     * every caller waiting on the entry and the key is dropped, so a
     * later request retries.
     */
    template <typename Compute, typename OnHit>
    Value
    getOrCompute(const Key &key, Compute &&compute, OnHit &&onHit)
    {
        Stripe &s = stripes_[stripeOf(key)];

        {
            // Shared-lock fast path: a completed entry is immutable.
            // value/error are safe to read after an acquire load of
            // done (they are written before the release store).
            std::shared_lock<std::shared_mutex> lock(s.m);
            const auto it = s.map.find(key);
            if (it != s.map.end() &&
                it->second->done.load(std::memory_order_acquire)) {
                const std::shared_ptr<Entry> entry = it->second;
                lock.unlock();
                s.requests.fetch_add(1, std::memory_order_relaxed);
                if (entry->error)
                    std::rethrow_exception(entry->error);
                onHit(static_cast<const Value &>(entry->value));
                return entry->value;
            }
        }

        std::shared_ptr<Entry> entry;
        bool owner = false;
        {
            std::unique_lock<std::shared_mutex> lock(s.m);
            s.requests.fetch_add(1, std::memory_order_relaxed);
            std::shared_ptr<Entry> &slot = s.map[key];
            if (!slot) {
                slot = std::make_shared<Entry>();
                owner = true;
            }
            entry = slot;
        }

        if (owner) {
            Value value{};
            std::exception_ptr error;
            try {
                value = compute();
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(entry->m);
                entry->value = std::move(value);
                entry->error = error;
                entry->done.store(true, std::memory_order_release);
            }
            entry->cv.notify_all();
            {
                std::unique_lock<std::shared_mutex> lock(s.m);
                ++s.computes;
                // Only the owner ever removes its entry, so the key
                // still maps to it here.
                if (error)
                    s.map.erase(key);
            }
            if (error)
                std::rethrow_exception(error);
            return entry->value;
        }

        std::unique_lock<std::mutex> lock(entry->m);
        if (!entry->done.load(std::memory_order_acquire)) {
            const auto start = std::chrono::steady_clock::now();
            entry->cv.wait(lock, [&] {
                return entry->done.load(std::memory_order_acquire);
            });
            singleFlightWaitSeconds() +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
        }
        if (entry->error)
            std::rethrow_exception(entry->error);
        onHit(static_cast<const Value &>(entry->value));
        return entry->value;
    }

    /** One consistent snapshot across all stripes (see class comment). */
    Stats
    stats() const
    {
        std::vector<std::unique_lock<std::shared_mutex>> locks;
        locks.reserve(stripes_.size());
        for (const Stripe &s : stripes_)
            locks.emplace_back(s.m);
        Stats out;
        for (const Stripe &s : stripes_) {
            out.requests += s.requests.load(std::memory_order_relaxed);
            out.computes += s.computes;
            out.entries += long(s.map.size());
        }
        return out;
    }

  private:
    struct Entry
    {
        std::mutex m;
        std::condition_variable cv;
        /** Atomic so the fast path can read it under the stripe's
            shared lock alone (writes happen under this entry's own
            mutex). */
        std::atomic<bool> done{false};
        Value value{};
        std::exception_ptr error;
    };

    struct Stripe
    {
        mutable std::shared_mutex m;
        std::map<Key, std::shared_ptr<Entry>> map;
        /** Atomic: bumped under the shared lock on the fast hit path. */
        std::atomic<long> requests{0};
        long computes = 0;
    };

    /** Which stripe serves this key. */
    std::size_t stripeOf(const Key &key) const
    {
        return detail::stripeFingerprint(key) & (stripes_.size() - 1);
    }

    static std::size_t
    stripeCountFor(int threadsHint)
    {
        const std::size_t hint =
            threadsHint < 1 ? 1 : std::size_t(threadsHint);
        std::size_t n = 1;
        while (n < 2 * hint && n < 256)
            n <<= 1;
        return n;
    }

    std::vector<Stripe> stripes_;
};

} // namespace swp

#endif // SWP_SUPPORT_SINGLEFLIGHT_HH
