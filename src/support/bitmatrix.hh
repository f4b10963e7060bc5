/**
 * @file
 * Word-packed bit rows and matrices.
 *
 * The scheduler's inner loops are dominated by dense set queries:
 * "does any ordered group reach v", "is edge (a, b) already recorded",
 * "which units of this row are busy". Plain vector<vector<bool>>
 * answers them one bit at a time and reallocates per probe; BitMatrix
 * packs each row into uint64_t words so the same queries become a few
 * word operations, and reset() reuses the backing storage so a matrix
 * held in a scheduling workspace is cleared, not reallocated, across
 * probes.
 */

#ifndef SWP_SUPPORT_BITMATRIX_HH
#define SWP_SUPPORT_BITMATRIX_HH

#include <cstdint>
#include <vector>

#include "support/diag.hh"

namespace swp
{

/** Index of the lowest set bit; undefined for word == 0. */
inline int
countTrailingZeros(std::uint64_t word)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(word);
#else
    int n = 0;
    while (!(word & 1)) {
        word >>= 1;
        ++n;
    }
    return n;
#endif
}

/** Index of the highest set bit; undefined for word == 0. */
inline int
highestSetBit(std::uint64_t word)
{
#if defined(__GNUC__) || defined(__clang__)
    return 63 - __builtin_clzll(word);
#else
    int n = 63;
    while (!(word >> n))
        --n;
    return n;
#endif
}

/** Number of set bits. */
inline int
popCount(std::uint64_t word)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(word);
#else
    int n = 0;
    for (; word; word &= word - 1)
        ++n;
    return n;
#endif
}

/** Mask with the low `n` bits set (n in [0, 64]). */
inline std::uint64_t
lowBitsMask(int n)
{
    return n >= 64 ? ~std::uint64_t(0) : ((std::uint64_t(1) << n) - 1);
}

/**
 * A rows x cols bit matrix stored row-major in 64-bit words. Row
 * pointers expose whole-word access so callers can run set algebra
 * (intersection tests, row unions) 64 columns at a time.
 */
class BitMatrix
{
  public:
    BitMatrix() = default;
    BitMatrix(int rows, int cols) { reset(rows, cols); }

    /** Resize to rows x cols, all bits clear; storage is reused. */
    void
    reset(int rows, int cols)
    {
        SWP_ASSERT(rows >= 0 && cols >= 0, "negative BitMatrix shape");
        rows_ = rows;
        cols_ = cols;
        wordsPerRow_ = (cols + 63) / 64;
        words_.assign(std::size_t(rows) * std::size_t(wordsPerRow_), 0);
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int wordsPerRow() const { return wordsPerRow_; }

    bool
    test(int r, int c) const
    {
        return (row(r)[c >> 6] >> (c & 63)) & 1;
    }

    void
    set(int r, int c)
    {
        row(r)[c >> 6] |= std::uint64_t(1) << (c & 63);
    }

    const std::uint64_t *
    row(int r) const
    {
        return words_.data() + std::size_t(r) * std::size_t(wordsPerRow_);
    }

    std::uint64_t *
    row(int r)
    {
        return words_.data() + std::size_t(r) * std::size_t(wordsPerRow_);
    }

    /** True if row r intersects the mask (mask has wordsPerRow words). */
    bool
    intersects(int r, const std::uint64_t *mask) const
    {
        const std::uint64_t *w = row(r);
        for (int i = 0; i < wordsPerRow_; ++i) {
            if (w[i] & mask[i])
                return true;
        }
        return false;
    }

    /** dst |= row src (dst has wordsPerRow words). */
    void
    orRowInto(int src, std::uint64_t *dst) const
    {
        const std::uint64_t *w = row(src);
        for (int i = 0; i < wordsPerRow_; ++i)
            dst[i] |= w[i];
    }

  private:
    int rows_ = 0;
    int cols_ = 0;
    int wordsPerRow_ = 0;
    std::vector<std::uint64_t> words_;
};

/**
 * A single reusable bit row (a set over [0, size)), for masks that live
 * next to a BitMatrix: the ordered-set mask of the HRMS pre-ordering,
 * per-component membership masks, and similar. The range operations and
 * nearest-set-bit scans serve interval occupancy, such as the rotating
 * allocator's register circle; they work a word at a time.
 */
class BitRow
{
  public:
    /** Resize to `size` bits, all clear; storage is reused. */
    void
    reset(int size)
    {
        SWP_ASSERT(size >= 0, "negative BitRow size");
        size_ = size;
        words_.assign(std::size_t((size + 63) / 64), 0);
    }

    int size() const { return size_; }

    bool
    test(int i) const
    {
        return (words_[std::size_t(i >> 6)] >> (i & 63)) & 1;
    }

    void
    set(int i)
    {
        words_[std::size_t(i >> 6)] |= std::uint64_t(1) << (i & 63);
    }

    void
    clear(int i)
    {
        words_[std::size_t(i >> 6)] &= ~(std::uint64_t(1) << (i & 63));
    }

    /** True if no bit of [begin, end) is set (0 <= begin, end <= size). */
    bool
    noneInRange(int begin, int end) const
    {
        if (begin >= end)
            return true;
        const int first = begin >> 6;
        const int last = (end - 1) >> 6;
        const std::uint64_t head = ~lowBitsMask(begin & 63);
        const std::uint64_t tail = lowBitsMask(((end - 1) & 63) + 1);
        if (first == last)
            return !(words_[std::size_t(first)] & head & tail);
        if (words_[std::size_t(first)] & head)
            return false;
        for (int w = first + 1; w < last; ++w) {
            if (words_[std::size_t(w)])
                return false;
        }
        return !(words_[std::size_t(last)] & tail);
    }

    /** Set every bit of [begin, end) (0 <= begin, end <= size). */
    void
    setRange(int begin, int end)
    {
        if (begin >= end)
            return;
        const int first = begin >> 6;
        const int last = (end - 1) >> 6;
        const std::uint64_t head = ~lowBitsMask(begin & 63);
        const std::uint64_t tail = lowBitsMask(((end - 1) & 63) + 1);
        if (first == last) {
            words_[std::size_t(first)] |= head & tail;
            return;
        }
        words_[std::size_t(first)] |= head;
        for (int w = first + 1; w < last; ++w)
            words_[std::size_t(w)] = ~std::uint64_t(0);
        words_[std::size_t(last)] |= tail;
    }

    /** Lowest set bit at or after i, or -1 if none (i >= 0). */
    int
    nextSetBit(int i) const
    {
        if (i >= size_)
            return -1;
        std::size_t w = std::size_t(i >> 6);
        std::uint64_t word = words_[w] & ~lowBitsMask(i & 63);
        while (!word) {
            if (++w == words_.size())
                return -1;
            word = words_[w];
        }
        return int(w) * 64 + countTrailingZeros(word);
    }

    /** Highest set bit at or before i, or -1 if none (i < size). */
    int
    prevSetBit(int i) const
    {
        if (i < 0)
            return -1;
        std::size_t w = std::size_t(i >> 6);
        std::uint64_t word = words_[w] & lowBitsMask((i & 63) + 1);
        while (!word) {
            if (w-- == 0)
                return -1;
            word = words_[w];
        }
        return int(w) * 64 + highestSetBit(word);
    }

    const std::uint64_t *words() const { return words_.data(); }
    std::uint64_t *words() { return words_.data(); }

  private:
    int size_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace swp

#endif // SWP_SUPPORT_BITMATRIX_HH
