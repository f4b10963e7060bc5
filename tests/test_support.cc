/**
 * @file
 * Tests for the support layer: deterministic RNG, string utilities,
 * tables and diagnostics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "support/arena.hh"
#include "support/bitmatrix.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "support/singleflight.hh"
#include "support/stats.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace swp
{
namespace
{

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeIsInclusiveAndCoversEndpoints)
{
    Rng rng(7);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.range(3, 6);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 6);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 4000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.03);
}

TEST(Rng, PickWeightedRespectsZeroWeights)
{
    Rng rng(3);
    const int weights[3] = {0, 5, 0};
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.pickWeighted(weights, 3), 1);
}

TEST(Strutil, TrimStripsBothEnds)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strutil, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strutil, SplitWsDropsEmptyFields)
{
    const auto parts = splitWs("  ld   x1\t x2 ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "ld");
    EXPECT_EQ(parts[2], "x2");
}

TEST(Strutil, ParseLongRejectsGarbage)
{
    EXPECT_EQ(parseLong("42"), 42);
    EXPECT_EQ(parseLong(" -7 "), -7);
    EXPECT_THROW(parseLong("x"), FatalError);
    EXPECT_THROW(parseLong("12x"), FatalError);
    EXPECT_THROW(parseLong(""), FatalError);
}

TEST(Strutil, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 3, "a"), "3-a");
    EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
}

TEST(Strutil, ParseInt64InRangeCheckedParsing)
{
    long long v = -1;
    EXPECT_TRUE(parseInt64InRange("42", 1, 100, v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt64InRange("1000000000000", 1, 1000000000000LL, v));
    EXPECT_EQ(v, 1000000000000LL);

    // Rejections never touch the output.
    v = 7;
    for (const char *bad : {"", "x", "12x", "x12", "1 2", " 12", "12 ",
                            "0", "-3", "101", "9223372036854775808",
                            "12.5", "+"}) {
        EXPECT_FALSE(parseInt64InRange(bad, 1, 100, v)) << bad;
        EXPECT_EQ(v, 7) << bad;
    }
}

TEST(Strutil, StrCatConcatenatesMixedTypes)
{
    EXPECT_EQ(strCat("a", 1, "/", 2), "a1/2");
    EXPECT_EQ(strCat(), "");
    EXPECT_EQ(strCat(std::string("x"), 'y'), "xy");
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"name", "value"});
    t.row().add("a").add(1);
    t.row().add("bb").add(22);
    EXPECT_EQ(t.numRows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("bb"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.row().add(1).add(2.5, 1);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
}

TEST(Diag, FatalAndPanicThrowDistinctTypes)
{
    EXPECT_THROW(SWP_FATAL("user error ", 1), FatalError);
    EXPECT_THROW(SWP_PANIC("bug ", 2), PanicError);
    EXPECT_NO_THROW(SWP_ASSERT(true, "fine"));
    EXPECT_THROW(SWP_ASSERT(1 == 2, "broken"), PanicError);
}

TEST(Stats, AccumulatorTracksMoments)
{
    Accumulator acc;
    acc.sample(1.0);
    acc.sample(3.0);
    EXPECT_EQ(acc.count(), 2u);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(Stats, StopwatchAdvances)
{
    Stopwatch sw;
    volatile long x = 0;
    for (long i = 0; i < 100000; ++i)
        x = x + i;
    EXPECT_GT(sw.seconds(), 0.0);
}

namespace
{

/** getOrCompute with a counting compute and a no-op hit hook. */
int
cachedSquare(SingleFlightCache<int, int> &cache, int key, int &computes)
{
    return cache.getOrCompute(
        key,
        [&]() {
            ++computes;
            return key * key;
        },
        [](const int &) {});
}

} // namespace

TEST(SingleFlight, UnboundedCacheNeverEvicts)
{
    SingleFlightCache<int, int> cache;
    int computes = 0;
    for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < 50; ++k)
            EXPECT_EQ(cachedSquare(cache, k, computes), k * k);
    }
    EXPECT_EQ(computes, 50);
    const SingleFlightStats s = cache.stats();
    EXPECT_EQ(s.requests, 150);
    EXPECT_EQ(s.computes, 50);
    EXPECT_EQ(s.entries, 50);
    EXPECT_EQ(s.evictions, 0);
}

TEST(SingleFlight, CapacityEvictsLeastRecentlyUsed)
{
    SingleFlightCache<int, int> cache(2);
    int computes = 0;
    cachedSquare(cache, 1, computes);
    cachedSquare(cache, 2, computes);
    cachedSquare(cache, 1, computes);  // Touch 1: now 2 is coldest.
    cachedSquare(cache, 3, computes);  // Evicts 2.
    EXPECT_EQ(computes, 3);
    EXPECT_EQ(cache.stats().entries, 2);
    EXPECT_EQ(cache.stats().evictions, 1);

    // 1 survived (served from cache), 2 was evicted (recomputed).
    cachedSquare(cache, 1, computes);
    EXPECT_EQ(computes, 3);
    EXPECT_EQ(cachedSquare(cache, 2, computes), 4);
    EXPECT_EQ(computes, 4);
}

TEST(SingleFlight, EvictedKeysRecomputeTheSameValue)
{
    SingleFlightCache<int, int> cache(4);
    int computes = 0;
    for (int k = 0; k < 64; ++k)
        EXPECT_EQ(cachedSquare(cache, k, computes), k * k);
    for (int k = 0; k < 64; ++k)
        EXPECT_EQ(cachedSquare(cache, k, computes), k * k);
    const SingleFlightStats s = cache.stats();
    EXPECT_LE(s.entries, 4);
    EXPECT_GT(s.evictions, 0);
    // Single-flight accounting survives eviction: every computation
    // either still sits in the map or was evicted — nothing was
    // computed twice while resident.
    EXPECT_EQ(s.computes, s.entries + s.evictions);
}

TEST(SingleFlight, FailedComputationsRetryAndDoNotPoison)
{
    SingleFlightCache<int, int> cache(2);
    int calls = 0;
    const auto failing = [&]() -> int {
        ++calls;
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(cache.getOrCompute(7, failing, [](const int &) {}),
                 std::runtime_error);
    int computes = 0;
    EXPECT_EQ(cachedSquare(cache, 7, computes), 49);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(computes, 1);
}

namespace
{

/** cachedSquare for the striped cache. */
int
stripedSquare(StripedSingleFlightCache<int, int> &cache, int key,
              int &computes)
{
    return cache.getOrCompute(
        key,
        [&]() {
            ++computes;
            return key * key;
        },
        [](const int &) {});
}

} // namespace

TEST(StripedSingleFlight, StripeCountTracksThreadsHint)
{
    using Cache = StripedSingleFlightCache<int, int>;
    // next-pow2(2 x hint), clamped to [1, 256]; uncapped caches never
    // clamp to the capacity, and a degenerate hint acts like 1 thread.
    EXPECT_EQ(Cache(0, 0).stripeCount(), 2u);
    EXPECT_EQ(Cache(0, -3).stripeCount(), 2u);
    EXPECT_EQ(Cache(0, 1).stripeCount(), 2u);
    EXPECT_EQ(Cache(0, 3).stripeCount(), 8u);
    EXPECT_EQ(Cache(0, 8).stripeCount(), 16u);
    EXPECT_EQ(Cache(0, 200).stripeCount(), 256u);
}

TEST(StripedSingleFlight, CapSplitsAcrossStripesAndSumsToBudget)
{
    // cap 8, hint 3 -> 8 stripes of cap 1 (the budget is never
    // exceeded in aggregate because per-stripe caps sum to it).
    StripedSingleFlightCache<int, int> even(8, 3);
    EXPECT_EQ(even.stripeCount(), 8u);
    std::size_t sum = 0;
    for (std::size_t s = 0; s < even.stripeCount(); ++s) {
        EXPECT_EQ(even.stripeCapacity(s), 1u);
        sum += even.stripeCapacity(s);
    }
    EXPECT_EQ(sum, even.capacity());

    // cap 5, hint 4: the stripe count clamps down to 4 (the largest
    // power of two <= 5) so no stripe gets cap 0 and becomes
    // accidentally unbounded; the remainder goes to the low stripes.
    StripedSingleFlightCache<int, int> uneven(5, 4);
    EXPECT_EQ(uneven.stripeCount(), 4u);
    EXPECT_EQ(uneven.stripeCapacity(0), 2u);
    EXPECT_EQ(uneven.stripeCapacity(1), 1u);
    EXPECT_EQ(uneven.stripeCapacity(2), 1u);
    EXPECT_EQ(uneven.stripeCapacity(3), 1u);

    // A tiny cap degenerates to the flat cache.
    using Cache = StripedSingleFlightCache<int, int>;
    EXPECT_EQ(Cache(1, 8).stripeCount(), 1u);
}

TEST(StripedSingleFlight, PerStripeLruKeepsEveryStripeWithinItsShare)
{
    StripedSingleFlightCache<int, int> cache(8, 3);
    int computes = 0;
    for (int round = 0; round < 2; ++round) {
        for (int k = 0; k < 64; ++k)
            EXPECT_EQ(stripedSquare(cache, k, computes), k * k);
    }
    long entries = 0;
    for (std::size_t s = 0; s < cache.stripeCount(); ++s) {
        const SingleFlightStats ss = cache.stripeStats(s);
        EXPECT_LE(std::size_t(ss.entries), cache.stripeCapacity(s));
        EXPECT_EQ(ss.computes, ss.entries + ss.evictions);
        entries += ss.entries;
    }
    const SingleFlightStats s = cache.stats();
    EXPECT_EQ(s.entries, entries);
    EXPECT_LE(std::size_t(s.entries), cache.capacity());
    EXPECT_GT(s.evictions, 0);
    EXPECT_EQ(s.requests, 128);
    // The flat cache's single-flight accounting invariant holds for
    // the aggregated stripe counters too.
    EXPECT_EQ(s.computes, s.entries + s.evictions);
}

TEST(StripedSingleFlight, UnboundedStripesNeverEvict)
{
    StripedSingleFlightCache<int, int> cache(0, 4);
    int computes = 0;
    for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < 50; ++k)
            EXPECT_EQ(stripedSquare(cache, k, computes), k * k);
    }
    EXPECT_EQ(computes, 50);
    const SingleFlightStats s = cache.stats();
    EXPECT_EQ(s.requests, 150);
    EXPECT_EQ(s.computes, 50);
    EXPECT_EQ(s.entries, 50);
    EXPECT_EQ(s.evictions, 0);
}

TEST(StripedSingleFlight, FailedComputationsRetryAndDoNotPoison)
{
    StripedSingleFlightCache<int, int> cache(8, 2);
    int calls = 0;
    const auto failing = [&]() -> int {
        ++calls;
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(cache.getOrCompute(7, failing, [](const int &) {}),
                 std::runtime_error);
    int computes = 0;
    EXPECT_EQ(stripedSquare(cache, 7, computes), 49);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(computes, 1);
}

TEST(StripedSingleFlight, StatsSnapshotIsConsistentUnderLoad)
{
    // The satellite fix this guards: stats() takes every stripe lock
    // in one acquisition, so a mid-run snapshot is a consistent cut,
    // not a torn per-stripe read. Under TSan this test also exercises
    // the shared-lock hit path against concurrent stats()/clear().
    //
    // Mid-run a cut may see computes < entries + evictions (an
    // in-flight entry exists before its compute counter lands), never
    // the reverse, and never computes > requests.
    StripedSingleFlightCache<int, int> cache(32, 4);
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&cache, &stop, w] {
            int computes = 0;
            int k = w * 17;
            while (!stop.load(std::memory_order_relaxed)) {
                stripedSquare(cache, k % 96, computes);
                ++k;
            }
        });
    }
    long totalRequests = 0;
    for (int i = 0; i < 200; ++i) {
        const SingleFlightStats s = cache.stats();
        EXPECT_GE(s.requests, totalRequests); // Monotone across cuts.
        totalRequests = s.requests;
        EXPECT_LE(s.computes, s.requests);
        EXPECT_LE(s.computes, s.entries + s.evictions);
        // Eviction skips in-flight slots, so a cut can overshoot the
        // cap by at most the number of concurrent computes.
        EXPECT_LE(std::size_t(s.entries), cache.capacity() + 4u);
    }
    stop.store(true);
    for (std::thread &t : workers)
        t.join();
    const SingleFlightStats s = cache.stats();
    EXPECT_EQ(s.computes, s.entries + s.evictions); // Exact at rest.
    EXPECT_LE(std::size_t(s.entries), cache.capacity());
}

TEST(Arena, ResetRetainsBlocksAndStopsAllocating)
{
    Arena arena(256);
    for (int job = 0; job < 5; ++job) {
        arena.reset();
        for (int i = 0; i < 8; ++i)
            arena.allocate(64);
    }
    const Arena::Stats s = arena.stats();
    // Every job needs 512 bytes -> two 256-byte blocks, sized by the
    // first job and reused (not re-allocated) by the rest.
    EXPECT_EQ(s.blocks, 2u);
    EXPECT_EQ(s.blockBytes, 512u);
    EXPECT_EQ(s.bytesInUse, 512u);
    EXPECT_EQ(s.highWaterBytes, 512u);
    EXPECT_EQ(s.allocations, 40u);
    EXPECT_EQ(s.resets, 5u);
}

TEST(Arena, HighWaterSurvivesResetAndTracksTheLargestJob)
{
    Arena arena(128);
    arena.allocate(100);
    arena.reset();
    EXPECT_EQ(arena.stats().bytesInUse, 0u);
    EXPECT_EQ(arena.stats().highWaterBytes, 100u);
    arena.allocate(300); // Oversized: gets a dedicated block.
    EXPECT_EQ(arena.stats().highWaterBytes, 300u);
    arena.reset();
    arena.allocate(40);
    EXPECT_EQ(arena.stats().highWaterBytes, 300u);
}

TEST(Arena, AllocationsAreAligned)
{
    Arena arena(256);
    arena.allocate(1, 1); // Skew the bump cursor.
    void *p8 = arena.allocate(8, 8);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8) % 8, 0u);
    double *d = arena.allocate<double>(3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
    d[0] = 1.5;
    d[2] = -2.5; // Writable across the whole span.
    EXPECT_EQ(d[0], 1.5);
    EXPECT_EQ(d[2], -2.5);
}

TEST(Arena, ArenaVectorGrowsAndSurvivesReuse)
{
    Arena arena;
    ArenaVector<int> v{ArenaAllocator<int>(arena)};
    for (int i = 0; i < 1000; ++i)
        v.push_back(i * 3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(v[i], i * 3);
    // Growth leaks superseded buffers into the arena by design
    // (deallocate is a no-op); clear + refill reuses the final buffer.
    v.clear();
    for (int i = 0; i < 500; ++i)
        v.push_back(i);
    EXPECT_EQ(v.back(), 499);
    EXPECT_GT(arena.stats().highWaterBytes, 1000u * sizeof(int));

    ArenaVector<int> w{ArenaAllocator<int>(arena)};
    EXPECT_TRUE(v.get_allocator() == w.get_allocator());
    Arena other;
    ArenaVector<int> x{ArenaAllocator<int>(other)};
    EXPECT_TRUE(v.get_allocator() != x.get_allocator());
}

TEST(Strutil, JsonQuoteEscapes)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(jsonQuote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(BitMatrix, WordHelpers)
{
    EXPECT_EQ(countTrailingZeros(1), 0);
    EXPECT_EQ(countTrailingZeros(0b1000), 3);
    EXPECT_EQ(countTrailingZeros(std::uint64_t(1) << 63), 63);
    EXPECT_EQ(lowBitsMask(0), 0u);
    EXPECT_EQ(lowBitsMask(1), 1u);
    EXPECT_EQ(lowBitsMask(5), 0b11111u);
    EXPECT_EQ(lowBitsMask(64), ~std::uint64_t(0));
}

TEST(BitMatrix, SetTestAndCrossWordColumns)
{
    // 70 columns spans two words per row: bits on both sides of the
    // word boundary must be independent.
    BitMatrix m(3, 70);
    EXPECT_EQ(m.wordsPerRow(), 2);
    EXPECT_FALSE(m.test(1, 63));
    m.set(1, 63);
    m.set(1, 64);
    m.set(2, 69);
    EXPECT_TRUE(m.test(1, 63));
    EXPECT_TRUE(m.test(1, 64));
    EXPECT_TRUE(m.test(2, 69));
    EXPECT_FALSE(m.test(0, 63));
    EXPECT_FALSE(m.test(1, 62));
    EXPECT_FALSE(m.test(1, 65));
}

TEST(BitMatrix, ResetClearsAndReusesAcrossShapes)
{
    BitMatrix m(2, 10);
    m.set(0, 3);
    m.set(1, 9);
    m.reset(4, 5);
    EXPECT_EQ(m.rows(), 4);
    EXPECT_EQ(m.cols(), 5);
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 5; ++c)
            EXPECT_FALSE(m.test(r, c));
    }
    // Growing again after shrinking also starts clear.
    m.reset(1, 130);
    for (int c = 0; c < 130; ++c)
        EXPECT_FALSE(m.test(0, c));
}

TEST(BitMatrix, IntersectsAndOrRowInto)
{
    BitMatrix m(2, 130);
    m.set(0, 5);
    m.set(0, 129);
    m.set(1, 64);

    BitRow mask;
    mask.reset(130);
    EXPECT_FALSE(m.intersects(0, mask.words()));
    mask.set(129);
    EXPECT_TRUE(m.intersects(0, mask.words()));
    EXPECT_FALSE(m.intersects(1, mask.words()));
    mask.clear(129);
    mask.set(64);
    EXPECT_TRUE(m.intersects(1, mask.words()));
    EXPECT_FALSE(m.intersects(0, mask.words()));

    // orRowInto unions a row into an external word buffer.
    BitRow acc;
    acc.reset(130);
    m.orRowInto(0, acc.words());
    m.orRowInto(1, acc.words());
    EXPECT_TRUE(acc.test(5));
    EXPECT_TRUE(acc.test(64));
    EXPECT_TRUE(acc.test(129));
    EXPECT_FALSE(acc.test(6));
}

TEST(BitRow, SetClearAndReuse)
{
    BitRow r;
    r.reset(70);
    EXPECT_EQ(r.size(), 70);
    r.set(0);
    r.set(69);
    EXPECT_TRUE(r.test(0));
    EXPECT_TRUE(r.test(69));
    r.clear(69);
    EXPECT_FALSE(r.test(69));
    r.reset(3);
    EXPECT_FALSE(r.test(0));
}

TEST(BitMatrix, HighestSetBit)
{
    EXPECT_EQ(highestSetBit(1), 0);
    EXPECT_EQ(highestSetBit(0b1010), 3);
    EXPECT_EQ(highestSetBit(~std::uint64_t(0)), 63);
    EXPECT_EQ(highestSetBit(std::uint64_t(1) << 63), 63);
}

TEST(BitRow, EmptyRowScansFindNothing)
{
    BitRow r;
    r.reset(0);
    EXPECT_EQ(r.nextSetBit(0), -1);
    EXPECT_EQ(r.prevSetBit(-1), -1);
    EXPECT_TRUE(r.noneInRange(0, 0));

    // A sized row with no bits set: every scan misses.
    r.reset(130);
    EXPECT_EQ(r.nextSetBit(0), -1);
    EXPECT_EQ(r.nextSetBit(129), -1);
    EXPECT_EQ(r.prevSetBit(129), -1);
    EXPECT_EQ(r.prevSetBit(0), -1);
    EXPECT_TRUE(r.noneInRange(0, 130));
}

TEST(BitRow, ScansAtWordBoundaries)
{
    BitRow r;
    r.reset(130);
    for (const int bit : {0, 63, 64, 129}) {
        r.reset(130);
        r.set(bit);
        EXPECT_EQ(r.nextSetBit(0), bit);
        EXPECT_EQ(r.nextSetBit(bit), bit);
        EXPECT_EQ(r.nextSetBit(bit + 1), -1);
        EXPECT_EQ(r.prevSetBit(129), bit);
        EXPECT_EQ(r.prevSetBit(bit), bit);
        EXPECT_EQ(r.prevSetBit(bit - 1), -1);
        EXPECT_FALSE(r.noneInRange(bit, bit + 1));
        EXPECT_TRUE(r.noneInRange(0, bit));
        EXPECT_TRUE(r.noneInRange(bit + 1, 130));
    }
    // Scans cross whole empty words.
    r.reset(200);
    r.set(3);
    r.set(190);
    EXPECT_EQ(r.nextSetBit(4), 190);
    EXPECT_EQ(r.prevSetBit(189), 3);
}

TEST(BitRow, RangesSpanningSeveralWords)
{
    BitRow r;
    r.reset(300);
    r.setRange(60, 200);
    EXPECT_FALSE(r.test(59));
    for (int i = 60; i < 200; ++i)
        ASSERT_TRUE(r.test(i)) << i;
    EXPECT_FALSE(r.test(200));
    EXPECT_TRUE(r.noneInRange(0, 60));
    EXPECT_TRUE(r.noneInRange(200, 300));
    EXPECT_FALSE(r.noneInRange(0, 61));
    EXPECT_FALSE(r.noneInRange(199, 300));
    EXPECT_FALSE(r.noneInRange(100, 101));
    EXPECT_EQ(r.nextSetBit(0), 60);
    EXPECT_EQ(r.nextSetBit(200), -1);
    EXPECT_EQ(r.prevSetBit(299), 199);
    EXPECT_EQ(r.prevSetBit(59), -1);

    // Empty and single-bit ranges, and the whole row.
    r.reset(64);
    r.setRange(10, 10);
    EXPECT_TRUE(r.noneInRange(0, 64));
    r.setRange(63, 64);
    EXPECT_TRUE(r.test(63));
    EXPECT_TRUE(r.noneInRange(0, 63));
    r.setRange(0, 64);
    EXPECT_FALSE(r.noneInRange(31, 32));
    EXPECT_EQ(r.prevSetBit(0), 0);
}

TEST(BitRow, RangeOpsMatchBitByBitReference)
{
    Rng rng(0xb17);
    for (int trial = 0; trial < 40; ++trial) {
        const int size = rng.range(1, 260);
        BitRow r;
        r.reset(size);
        std::vector<bool> ref(std::size_t(size), false);
        for (int step = 0; step < 12; ++step) {
            const int b = rng.range(0, size);
            const int e = rng.range(b, std::min(size, b + rng.range(0, 140)));
            r.setRange(b, e);
            for (int i = b; i < e; ++i)
                ref[std::size_t(i)] = true;
            for (int q = 0; q < 24; ++q) {
                const int x = rng.range(0, size - 1);
                const int y = rng.range(x, size);
                const bool clear =
                    std::none_of(ref.begin() + x, ref.begin() + y,
                                 [](bool v) { return v; });
                ASSERT_EQ(r.noneInRange(x, y), clear) << x << ".." << y;
                int next = -1, prev = -1;
                for (int i = x; i < size && next < 0; ++i)
                    next = ref[std::size_t(i)] ? i : -1;
                for (int i = x; i >= 0 && prev < 0; --i)
                    prev = ref[std::size_t(i)] ? i : -1;
                ASSERT_EQ(r.nextSetBit(x), next) << x;
                ASSERT_EQ(r.prevSetBit(x), prev) << x;
            }
        }
    }
}

} // namespace
} // namespace swp
