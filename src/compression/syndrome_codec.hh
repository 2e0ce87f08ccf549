/**
 * @file
 * Syndrome compression (paper Sec. 7.6).
 *
 * The decoder must receive each round's syndrome bits and still finish
 * within the 1 us deadline; the paper notes that "as syndromes are
 * typically compressible, we can further employ Syndrome Compression
 * to reduce bandwidth requirement". Syndromes are overwhelmingly
 * sparse (HW 0-2 dominates, Sec. 4.2), so two simple lossless codecs
 * capture almost all the win:
 *
 *  - Sparse codec: a set-bit count followed by the bit indices
 *    (AFS-style "sparse representation");
 *  - Run-length codec: zero-run lengths between set bits, in bytes
 *    with an escape for long runs.
 *
 * Both degrade gracefully on dense inputs by falling back to the raw
 * bitmap when it is smaller, so the encoded size never exceeds
 * ceil(n/8) + 1 bytes.
 *
 * Each codec has one implementation, over sorted defect lists (the
 * indices of the set bits, as decoders consume them):
 * appendEncodedDefects() and tryDecodeDefects(). The BitVec entry
 * points are thin wrappers over them and produce the same bytes.
 */

#ifndef ASTREA_COMPRESSION_SYNDROME_CODEC_HH
#define ASTREA_COMPRESSION_SYNDROME_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hh"

namespace astrea
{

/** Available syndrome encodings. */
enum class SyndromeCodec : uint8_t
{
    Raw,        ///< Plain bitmap, ceil(n/8) bytes + 1 tag byte.
    Sparse,     ///< Count + per-bit indices.
    RunLength,  ///< Zero-run lengths.
};

/**
 * Encode a syndrome with the requested codec. The first byte tags the
 * representation actually used (sparse/run-length fall back to raw if
 * raw is smaller), so decodeSyndrome() is self-describing.
 */
std::vector<uint8_t> encodeSyndrome(const BitVec &syndrome,
                                    SyndromeCodec codec);

/**
 * encodeSyndrome() into a caller-owned buffer (cleared first), so
 * steady-state encodes touch no allocator once the buffer has grown
 * to its working size.
 */
void encodeSyndromeInto(const BitVec &syndrome, SyndromeCodec codec,
                        std::vector<uint8_t> &out);

/**
 * Append the encoding of a num_bits-bit syndrome whose set bits are
 * `defects` to `out`. The bytes equal encodeSyndrome() of the BitVec
 * with those bits set. Indices must be below num_bits (checked); a
 * list that is not strictly increasing is sorted and deduplicated
 * first, which is the set such a BitVec would hold. The wire path
 * (net::FleetClient) encodes straight into its send buffer, so a
 * sorted list costs no allocation once `out` has grown.
 */
void appendEncodedDefects(std::span<const uint32_t> defects,
                          uint32_t num_bits, SyndromeCodec codec,
                          std::vector<uint8_t> &out);

/**
 * Decode a syndrome produced by encodeSyndrome().
 *
 * Aborts on malformed input (trusted in-process buffers only); use
 * tryDecodeSyndromeInto() for untrusted bytes off the wire.
 *
 * @param bytes Encoded buffer.
 * @param num_bits The (known) syndrome length.
 */
BitVec decodeSyndrome(const std::vector<uint8_t> &bytes,
                      uint32_t num_bits);

/**
 * Non-fatal decode for untrusted input: returns false on any
 * malformed buffer (empty, unknown tag, truncation, out-of-range
 * index, trailing garbage) without crashing or reading past
 * bytes[len-1]. On success `out` is resized to num_bits and holds the
 * decoded syndrome; on failure its contents are unspecified. Reuses
 * `out`'s storage, so steady-state calls touch no allocator.
 */
bool tryDecodeSyndromeInto(const uint8_t *bytes, size_t len,
                           uint32_t num_bits, BitVec &out);

/**
 * Non-fatal decode of untrusted bytes into a defect list: the set
 * bits' indices, sorted and without duplicates (a Sparse payload may
 * list them in any order, or more than once). Returns false on the
 * same malformed buffers tryDecodeSyndromeInto() rejects. On success
 * `count` is the number of set bits and out[0, min(count, out.size()))
 * holds the smallest of them, so a count above out.size() means the
 * list did not fit. Touches no allocator.
 */
bool tryDecodeDefects(const uint8_t *bytes, size_t len,
                      uint32_t num_bits, std::span<uint32_t> out,
                      size_t &count);

/** Compression statistics over a stream of syndromes. */
struct CompressionStats
{
    uint64_t syndromes = 0;
    uint64_t rawBytes = 0;
    uint64_t encodedBytes = 0;

    double
    ratio() const
    {
        return encodedBytes
                   ? static_cast<double>(rawBytes) /
                         static_cast<double>(encodedBytes)
                   : 0.0;
    }

    double
    meanEncodedBytes() const
    {
        return syndromes ? static_cast<double>(encodedBytes) /
                               static_cast<double>(syndromes)
                         : 0.0;
    }

    void add(uint32_t num_bits, size_t encoded_bytes);
};

/**
 * Time to transmit `bytes` at `mbps` megabytes per second, in ns
 * (the quantity Table 7 trades against decode budget).
 */
double transmissionTimeNs(double bytes, double mbps);

} // namespace astrea

#endif // ASTREA_COMPRESSION_SYNDROME_CODEC_HH
