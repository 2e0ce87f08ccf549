/**
 * @file
 * Precomputed flattened perfect-matching tables (paper Sec. 5.2.3).
 *
 * The HW6 unit hardwires its 15 six-node matchings into an adder
 * network (paper Fig. 7a); the software analogue is a once-built flat
 * table of every perfect matching of m nodes for each even m <= 10
 * (1 / 3 / 15 / 105 / 945 rows of m/2 index pairs), generated from the
 * canonical enumerator and shared by every decoder instance in the
 * process.
 *
 * Two layouts are kept side by side:
 *
 *  - row-major node pairs (pairAt) for reconstructing the winning
 *    matching after the kernel reduction, and
 *  - slot-major flat tile offsets (slotOffsets): for pair slot k,
 *    a contiguous array whose entry r is i*m + j for row r's k-th pair.
 *    Candidate evaluation over an m x m weight tile then needs no
 *    index arithmetic at all — each slot is one gather stream, which is
 *    what the AVX2 kernel in simd_kernel.cc consumes directly.
 *
 * Offset arrays are padded to a multiple of 16 rows — the AVX2
 * kernel's stride (it evaluates 16 candidate rows per iteration).
 * Padding entries point at tile offset 0 (the (0,0) diagonal), which
 * every matchTile16 tile is required to hold an infinite weight at, so
 * padded lanes can never win the min-reduction.
 */

#ifndef ASTREA_ASTREA_MATCHING_TABLES_HH
#define ASTREA_ASTREA_MATCHING_TABLES_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace astrea
{

/** Flat table of all perfect matchings of m nodes (even m <= 10). */
class MatchingTable
{
  public:
    /** Largest node count with a prebuilt table (945 rows). */
    static constexpr int kMaxNodes = 10;

    /** Rows are padded to this multiple for the AVX2 kernel, which
     *  consumes 16 offsets per iteration. */
    static constexpr uint32_t kRowPadding = 16;

    /**
     * The process-wide table for m nodes (m even, 2 <= m <= 10).
     * Built once on first use; the reference stays valid forever.
     */
    static const MatchingTable &forNodes(int m);

    int nodes() const { return m_; }
    int pairsPerRow() const { return m_ / 2; }

    /** Number of real candidate matchings: (m-1)!!. */
    uint32_t rows() const { return rows_; }

    /** rows() rounded up to a multiple of kRowPadding. */
    uint32_t rowsPadded() const { return rowsPadded_; }

    /**
     * Slot-major flat tile offsets: slotOffsets(k)[r] == i*m + j where
     * (i, j) is row r's k-th pair. rowsPadded() entries; the padding
     * tail is offset 0.
     */
    const int32_t *
    slotOffsets(int slot) const
    {
        return offsets_.data() +
               static_cast<size_t>(slot) * rowsPadded_;
    }

    /** Row r's k-th node pair (i < j). */
    std::pair<int, int>
    pairAt(uint32_t row, int slot) const
    {
        const uint8_t *p =
            pairs_.data() + static_cast<size_t>(row) * m_ + 2 * slot;
        return {p[0], p[1]};
    }

  private:
    explicit MatchingTable(int m);

    int m_;
    uint32_t rows_;
    uint32_t rowsPadded_;
    /** Slot-major tile offsets, padded (see slotOffsets). */
    std::vector<int32_t> offsets_;
    /** Row-major packed node pairs: m_ bytes per row. */
    std::vector<uint8_t> pairs_;
};

} // namespace astrea

#endif // ASTREA_ASTREA_MATCHING_TABLES_HH
