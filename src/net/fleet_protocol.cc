#include "net/fleet_protocol.hh"

#include <algorithm>

namespace astrea
{
namespace net
{

namespace
{

inline void
put16(uint8_t *p, uint16_t v)
{
    p[0] = static_cast<uint8_t>(v & 0xff);
    p[1] = static_cast<uint8_t>(v >> 8);
}

inline void
put32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
}

inline void
put64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
}

inline uint16_t
get16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

inline uint32_t
get32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

/** Write a header with the given fields to dst[0, kFleetHeaderBytes). */
void
writeFleetHeader(uint8_t *dst, FleetFrameType type, uint32_t stream_id,
                 uint32_t seq, uint16_t payload_len)
{
    put16(dst, kFleetMagic);
    dst[2] = kFleetVersion;
    dst[3] = static_cast<uint8_t>(type);
    put32(dst + 4, stream_id);
    put32(dst + 8, seq);
    put16(dst + 12, payload_len);
}

/** Grow out by n bytes and return the first new one. */
inline uint8_t *
grow(std::vector<uint8_t> &out, size_t n)
{
    const size_t at = out.size();
    out.resize(at + n);
    return out.data() + at;
}

} // namespace

FleetParse
parseFleetHeader(const uint8_t *buf, size_t len, FleetFrameHeader &out)
{
    // Validate eagerly on whatever prefix is available so a garbage
    // stream is rejected before it can demand more bytes.
    if (len >= 2 && get16(buf) != kFleetMagic)
        return FleetParse::Malformed;
    if (len >= 3 && buf[2] != kFleetVersion)
        return FleetParse::Malformed;
    if (len >= 4 &&
        buf[3] > static_cast<uint8_t>(FleetFrameType::Verdict))
        return FleetParse::Malformed;
    if (len < kFleetHeaderBytes)
        return FleetParse::NeedMore;
    const uint16_t payload_len = get16(buf + 12);
    if (payload_len > kFleetMaxPayload)
        return FleetParse::Malformed;
    out.type = static_cast<FleetFrameType>(buf[3]);
    out.streamId = get32(buf + 4);
    out.seq = get32(buf + 8);
    out.payloadLen = payload_len;
    return FleetParse::Ok;
}

void
appendFleetHello(std::vector<uint8_t> &out, uint32_t num_detector_bits)
{
    uint8_t *p = grow(out, kFleetHeaderBytes + 4);
    writeFleetHeader(p, FleetFrameType::Hello, 0, 0, 4);
    put32(p + kFleetHeaderBytes, num_detector_bits);
}

void
appendFleetSyndrome(std::vector<uint8_t> &out, uint32_t stream_id,
                    uint32_t seq, uint8_t priority,
                    const uint8_t *codec_bytes, size_t codec_len)
{
    uint8_t *p = grow(out, kFleetHeaderBytes + 1 + codec_len);
    writeFleetHeader(p, FleetFrameType::Syndrome, stream_id, seq,
                     static_cast<uint16_t>(1 + codec_len));
    p[kFleetHeaderBytes] = priority;
    std::copy(codec_bytes, codec_bytes + codec_len,
              p + kFleetHeaderBytes + 1);
}

void
appendFleetSyndrome(std::vector<uint8_t> &out, uint32_t stream_id,
                    uint32_t seq, uint8_t priority,
                    std::span<const uint32_t> defects, uint32_t num_bits,
                    SyndromeCodec codec)
{
    // Header and priority first, then the codec appends its bytes; the
    // payload length is known only once they are in.
    const size_t at = out.size();
    grow(out, kFleetHeaderBytes + 1);
    appendEncodedDefects(defects, num_bits, codec, out);
    uint8_t *p = out.data() + at;
    writeFleetHeader(p, FleetFrameType::Syndrome, stream_id, seq,
                     static_cast<uint16_t>(out.size() - at -
                                           kFleetHeaderBytes));
    p[kFleetHeaderBytes] = priority;
}

void
appendFleetVerdict(std::vector<uint8_t> &out, uint32_t stream_id,
                   uint32_t seq, uint64_t obs_mask, uint8_t flags)
{
    uint8_t *p = grow(out, kFleetVerdictBytes);
    writeFleetHeader(p, FleetFrameType::Verdict, stream_id, seq,
                     kFleetVerdictBytes - kFleetHeaderBytes);
    put64(p + kFleetHeaderBytes, obs_mask);
    p[kFleetHeaderBytes + 8] = flags;
}

} // namespace net
} // namespace astrea
