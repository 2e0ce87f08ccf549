/**
 * @file
 * Binary syndrome-ingest wire protocol for the decode fleet.
 *
 * Frames are length-prefixed and versioned so malformed or truncated
 * streams fail fast and the connection can close cleanly instead of
 * desynchronizing. All integers are little-endian. The 14-byte header:
 *
 *   offset  size  field
 *   0       2     magic        0xA57A
 *   2       1     version      1
 *   3       1     type         FleetFrameType
 *   4       4     stream_id    logical-qubit stream
 *   8       4     seq          per-stream shot sequence number
 *   12      2     payload_len  bytes following the header (<= 4096)
 *
 * Payloads by type:
 *  - Hello (server -> client, sent once on accept): u32 detector bit
 *    count of the serving workload. stream_id/seq are zero.
 *  - Syndrome (client -> server): u8 priority (higher = more
 *    important, survives shedding longer) followed by a
 *    compression/syndrome_codec self-describing buffer.
 *  - Verdict (server -> client): u64 observable-flip mask + u8 flags
 *    (gave-up / shed / error bits). Echoes the shot's stream_id+seq.
 *
 * Parsing is incremental (NeedMore / Ok / Malformed) so a reader can
 * feed whatever recv() returned; FleetFrameBuffer wraps the
 * accumulate-and-extract loop with a reusable buffer so steady-state
 * ingest touches no allocator. Frames are written in place: the
 * append functions grow the caller's buffer once per frame and store
 * the header and payload into it, and a Syndrome frame can be built
 * straight from a defect list with the codec writing its bytes into
 * the frame.
 */

#ifndef ASTREA_NET_FLEET_PROTOCOL_HH
#define ASTREA_NET_FLEET_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compression/syndrome_codec.hh"

namespace astrea
{
namespace net
{

constexpr uint16_t kFleetMagic = 0xA57A;
constexpr uint8_t kFleetVersion = 1;
constexpr size_t kFleetHeaderBytes = 14;
/** Hard payload cap; d=13 raw bitmaps are ~150 bytes, 4K is ample. */
constexpr size_t kFleetMaxPayload = 4096;

/** Frame kinds; see file comment for payload layouts. */
enum class FleetFrameType : uint8_t
{
    Hello = 0,
    Syndrome = 1,
    Verdict = 2,
};

/** Verdict payload flag bits. */
constexpr uint8_t kVerdictGaveUp = 1u << 0;
constexpr uint8_t kVerdictShed = 1u << 1;
constexpr uint8_t kVerdictError = 1u << 2;
/** Encoded Verdict frame: header + u64 observable mask + u8 flags. */
constexpr size_t kFleetVerdictBytes = kFleetHeaderBytes + 9;

/** Decoded frame header (host byte order). */
struct FleetFrameHeader
{
    FleetFrameType type = FleetFrameType::Hello;
    uint32_t streamId = 0;
    uint32_t seq = 0;
    uint16_t payloadLen = 0;
};

/** Incremental parse outcome. */
enum class FleetParse
{
    NeedMore,   ///< Not enough bytes yet; read more.
    Ok,         ///< Header (and payload length) validated.
    Malformed,  ///< Bad magic/version/type/length; close the stream.
};

/**
 * Validate and decode a frame header from buf[0..len). Ok means the
 * header fields are trustworthy and the full frame spans
 * kFleetHeaderBytes + payloadLen bytes (which may still exceed len —
 * callers keep reading until the payload is buffered).
 */
FleetParse parseFleetHeader(const uint8_t *buf, size_t len,
                            FleetFrameHeader &out);

/** Append a complete Hello frame. */
void appendFleetHello(std::vector<uint8_t> &out,
                      uint32_t num_detector_bits);

/** Append a complete Syndrome frame wrapping pre-encoded codec bytes. */
void appendFleetSyndrome(std::vector<uint8_t> &out, uint32_t stream_id,
                         uint32_t seq, uint8_t priority,
                         const uint8_t *codec_bytes, size_t codec_len);

/**
 * Append a complete Syndrome frame for the num_bits-bit syndrome whose
 * set bits are `defects`, encoded with `codec` directly into the
 * frame (appendEncodedDefects' rules). The bytes equal the pre-encoded
 * overload's on the codec's encoding of the same syndrome.
 */
void appendFleetSyndrome(std::vector<uint8_t> &out, uint32_t stream_id,
                         uint32_t seq, uint8_t priority,
                         std::span<const uint32_t> defects,
                         uint32_t num_bits, SyndromeCodec codec);

/** Append a complete Verdict frame. */
void appendFleetVerdict(std::vector<uint8_t> &out, uint32_t stream_id,
                        uint32_t seq, uint64_t obs_mask,
                        uint8_t flags);

/**
 * Accumulates raw socket bytes and yields complete frames. The
 * internal buffer is compacted in place and only grows to the largest
 * burst seen, so steady-state ingest is allocation-free.
 */
class FleetFrameBuffer
{
  public:
    /** Append n bytes read off the socket. */
    void
    append(const uint8_t *data, size_t n)
    {
        // Compact consumed prefix before growing the tail.
        if (readPos_ > 0) {
            buf_.erase(buf_.begin(),
                       buf_.begin() + static_cast<ptrdiff_t>(readPos_));
            readPos_ = 0;
        }
        buf_.insert(buf_.end(), data, data + n);
    }

    /**
     * Extract the next complete frame. On Ok, `header` is filled and
     * `payload` points at payloadLen bytes owned by the buffer (valid
     * until the next append/next call). NeedMore means append more
     * bytes; Malformed means the stream is unrecoverable.
     */
    FleetParse
    next(FleetFrameHeader &header, const uint8_t *&payload)
    {
        const uint8_t *base = buf_.data() + readPos_;
        const size_t avail = buf_.size() - readPos_;
        FleetParse st = parseFleetHeader(base, avail, header);
        if (st != FleetParse::Ok)
            return st;
        const size_t total = kFleetHeaderBytes + header.payloadLen;
        if (avail < total)
            return FleetParse::NeedMore;
        payload = base + kFleetHeaderBytes;
        readPos_ += total;
        return FleetParse::Ok;
    }

    /** Bytes buffered but not yet consumed (for tests). */
    size_t pending() const { return buf_.size() - readPos_; }

  private:
    std::vector<uint8_t> buf_;
    size_t readPos_ = 0;
};

} // namespace net
} // namespace astrea

#endif // ASTREA_NET_FLEET_PROTOCOL_HH
