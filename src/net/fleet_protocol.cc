#include "net/fleet_protocol.hh"

namespace astrea
{
namespace net
{

namespace
{

inline void
put16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v & 0xff));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

inline void
put32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

inline void
put64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
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
appendFleetHeader(std::vector<uint8_t> &out, FleetFrameType type,
                  uint32_t stream_id, uint32_t seq,
                  uint16_t payload_len)
{
    put16(out, kFleetMagic);
    out.push_back(kFleetVersion);
    out.push_back(static_cast<uint8_t>(type));
    put32(out, stream_id);
    put32(out, seq);
    put16(out, payload_len);
}

void
appendFleetHello(std::vector<uint8_t> &out, uint32_t num_detector_bits)
{
    appendFleetHeader(out, FleetFrameType::Hello, 0, 0, 4);
    put32(out, num_detector_bits);
}

void
appendFleetSyndrome(std::vector<uint8_t> &out, uint32_t stream_id,
                    uint32_t seq, uint8_t priority,
                    const uint8_t *codec_bytes, size_t codec_len)
{
    appendFleetHeader(out, FleetFrameType::Syndrome, stream_id, seq,
                      static_cast<uint16_t>(1 + codec_len));
    out.push_back(priority);
    out.insert(out.end(), codec_bytes, codec_bytes + codec_len);
}

void
appendFleetVerdict(std::vector<uint8_t> &out, uint32_t stream_id,
                   uint32_t seq, uint64_t obs_mask, uint8_t flags)
{
    appendFleetHeader(out, FleetFrameType::Verdict, stream_id, seq,
                      kFleetVerdictBytes - kFleetHeaderBytes);
    put64(out, obs_mask);
    out.push_back(flags);
}

} // namespace net
} // namespace astrea
