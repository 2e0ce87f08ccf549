#include "compression/syndrome_codec.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace astrea
{

namespace
{

/** Tag byte identifying the representation inside the buffer. */
enum Tag : uint8_t
{
    kTagRaw = 0,
    kTagSparse = 1,
    kTagRunLength = 2,
};

} // namespace

std::vector<uint8_t>
encodeSyndrome(const BitVec &syndrome, SyndromeCodec codec)
{
    std::vector<uint8_t> out;
    encodeSyndromeInto(syndrome, codec, out);
    return out;
}

void
encodeSyndromeInto(const BitVec &syndrome, SyndromeCodec codec,
                   std::vector<uint8_t> &out)
{
    thread_local std::vector<uint32_t> defects;
    syndrome.onesIndicesInto(defects);
    out.clear();
    appendEncodedDefects(defects, static_cast<uint32_t>(syndrome.size()),
                         codec, out);
}

void
appendEncodedDefects(std::span<const uint32_t> defects, uint32_t num_bits,
                     SyndromeCodec codec, std::vector<uint8_t> &out)
{
    bool increasing = true;
    for (size_t i = 0; i < defects.size(); i++) {
        ASTREA_CHECK(defects[i] < num_bits, "defect index out of range");
        if (i > 0 && defects[i] <= defects[i - 1])
            increasing = false;
    }
    if (!increasing) {
        std::vector<uint32_t> sorted(defects.begin(), defects.end());
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()),
                     sorted.end());
        appendEncodedDefects(sorted, num_bits, codec, out);
        return;
    }

    // The raw bitmap is the fallback bound, so its size is known
    // without materializing it.
    const size_t start = out.size();
    const size_t raw_size = 1 + (static_cast<size_t>(num_bits) + 7) / 8;
    if (codec == SyndromeCodec::Sparse) {
        // A set-bit count, then each index in one byte, or two once
        // the syndrome exceeds 256 bits.
        ASTREA_CHECK(defects.size() < 256,
                     "syndrome too dense for count byte");
        const bool wide = num_bits > 256;
        const size_t size = 2 + defects.size() * (wide ? 2 : 1);
        if (size < raw_size) {
            out.resize(start + size);
            uint8_t *p = out.data() + start;
            *p++ = kTagSparse;
            *p++ = static_cast<uint8_t>(defects.size());
            for (uint32_t d : defects) {
                *p++ = static_cast<uint8_t>(d & 0xff);
                if (wide)
                    *p++ = static_cast<uint8_t>(d >> 8);
            }
            return;
        }
    } else if (codec == SyndromeCodec::RunLength) {
        // Byte stream of zero-run lengths before each set bit; 255 is
        // an escape meaning "255 zeros and no bit yet".
        out.push_back(kTagRunLength);
        uint32_t next = 0;  // Index the current zero run starts at.
        for (uint32_t d : defects) {
            uint32_t run = d - next;
            for (; run >= 255; run -= 255)
                out.push_back(255);
            out.push_back(static_cast<uint8_t>(run));
            next = d + 1;
        }
        if (out.size() - start < raw_size)
            return;
        out.resize(start);
    }
    // Raw bitmap, and the lossless fallback: never ship more bytes
    // than it takes.
    out.resize(start + raw_size);
    uint8_t *bitmap = out.data() + start;
    bitmap[0] = kTagRaw;
    for (uint32_t d : defects)
        bitmap[1 + d / 8] |= static_cast<uint8_t>(1u << (d % 8));
}

bool
tryDecodeSyndromeInto(const uint8_t *bytes, size_t len,
                      uint32_t num_bits, BitVec &out)
{
    // Every decoded list fits in num_bits entries.
    thread_local std::vector<uint32_t> defects;
    defects.resize(num_bits);
    size_t count = 0;
    if (!tryDecodeDefects(bytes, len, num_bits, defects, count))
        return false;
    out.resize(num_bits);
    for (size_t i = 0; i < count; i++)
        out.set(defects[i]);
    return true;
}

bool
tryDecodeDefects(const uint8_t *bytes, size_t len, uint32_t num_bits,
                 std::span<uint32_t> out, size_t &count)
{
    count = 0;
    auto emit = [&](uint32_t idx) {
        if (count < out.size())
            out[count] = idx;
        count++;
    };
    if (len == 0)
        return false;
    switch (bytes[0]) {
      case kTagRaw: {
        const size_t nbytes = (static_cast<size_t>(num_bits) + 7) / 8;
        if (len != 1 + nbytes)
            return false;
        // Padding bits past num_bits in the last byte must be zero.
        if (num_bits % 8 != 0 &&
            (bytes[len - 1] >> (num_bits % 8)) != 0)
            return false;
        for (size_t b = 0; b < nbytes; b++) {
            for (unsigned v = bytes[1 + b]; v != 0; v &= v - 1)
                emit(static_cast<uint32_t>(8 * b + std::countr_zero(v)));
        }
        return true;
      }
      case kTagSparse: {
        if (len < 2)
            return false;
        const size_t width = num_bits > 256 ? 2 : 1;
        const size_t n = bytes[1];
        if (len != 2 + n * width)
            return false;
        auto index = [&](size_t k) {
            const uint8_t *p = bytes + 2 + k * width;
            return width == 2 ? static_cast<uint32_t>(p[0] | (p[1] << 8))
                              : static_cast<uint32_t>(p[0]);
        };
        size_t k = 0;
        for (; k < n; k++) {
            const uint32_t idx = index(k);
            if (idx >= num_bits)
                return false;
            if (k > 0 && idx <= index(k - 1))
                break;
            emit(idx);
        }
        if (k == n)
            return true;
        // Not strictly increasing (no encoder here writes that, but
        // the wire may): sort and deduplicate, which yields the set
        // the BitVec form decodes. Indices fit in 16 bits.
        uint16_t sorted[255];
        for (k = 0; k < n; k++) {
            const uint32_t idx = index(k);
            if (idx >= num_bits)
                return false;
            sorted[k] = static_cast<uint16_t>(idx);
        }
        std::sort(sorted, sorted + n);
        count = 0;
        for (k = 0; k < n; k++) {
            if (k == 0 || sorted[k] != sorted[k - 1])
                emit(sorted[k]);
        }
        return true;
      }
      case kTagRunLength: {
        uint64_t i = 0;
        for (size_t pos = 1; pos < len; pos++) {
            i += bytes[pos];
            if (bytes[pos] == 255)
                continue;  // Escape: no bit after this run.
            if (i >= num_bits)
                return false;
            emit(static_cast<uint32_t>(i));
            i++;
        }
        return true;
      }
      default:
        return false;
    }
}

BitVec
decodeSyndrome(const std::vector<uint8_t> &bytes, uint32_t num_bits)
{
    ASTREA_CHECK(!bytes.empty(), "empty syndrome buffer");
    ASTREA_CHECK(bytes[0] <= kTagRunLength,
                 "unknown syndrome codec tag");
    BitVec out;
    ASTREA_CHECK(tryDecodeSyndromeInto(bytes.data(), bytes.size(),
                                       num_bits, out),
                 "malformed syndrome buffer");
    return out;
}

void
CompressionStats::add(uint32_t num_bits, size_t encoded_bytes)
{
    syndromes++;
    rawBytes += (num_bits + 7) / 8 + 1;
    encodedBytes += encoded_bytes;
}

double
transmissionTimeNs(double bytes, double mbps)
{
    if (mbps <= 0.0)
        return 0.0;
    // 1 MBps = 1 byte per microsecond.
    return bytes / mbps * 1000.0;
}

} // namespace astrea
