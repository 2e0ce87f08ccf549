/**
 * @file
 * Blocking client for the fleet ingest protocol.
 *
 * Shared by the saturation bench, the integration tests and the
 * `astrea_cli fleet-client` traffic generator. One client is one TCP
 * connection multiplexing any number of logical stream ids; typical
 * use pairs one sending thread (sendShot/flush) with one receiving
 * thread (readVerdict) — the two directions are independent, but each
 * direction must be driven by a single thread at a time.
 */

#ifndef ASTREA_NET_FLEET_CLIENT_HH
#define ASTREA_NET_FLEET_CLIENT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compression/syndrome_codec.hh"
#include "net/fleet_protocol.hh"

namespace astrea
{
namespace net
{

/** A decoded Verdict frame. */
struct FleetClientVerdict
{
    uint32_t streamId = 0;
    uint32_t seq = 0;
    uint64_t obsMask = 0;
    bool gaveUp = false;
    bool shed = false;
    bool error = false;
};

class FleetClient
{
  public:
    FleetClient() = default;
    ~FleetClient();

    FleetClient(const FleetClient &) = delete;
    FleetClient &operator=(const FleetClient &) = delete;

    /**
     * Connect (numeric IPv4 only) and read the server Hello; false
     * with *error set on failure. After success numDetectorBits()
     * holds the syndrome width to encode.
     */
    bool connect(const std::string &host, uint16_t port,
                 std::string *error);

    void close();
    bool connected() const { return fd_ >= 0; }
    uint32_t numDetectorBits() const { return numDetectorBits_; }

    /**
     * Stage one shot (defect indices, strictly increasing) into the
     * send buffer as a Syndrome frame, encoded straight from the list;
     * actually written on flush() or when the buffer passes ~32 KiB.
     * Returns false on a lost connection. The send buffer is reused,
     * so steady state never allocates.
     */
    bool sendShot(uint32_t stream_id, uint32_t seq, uint8_t priority,
                  std::span<const uint32_t> defects,
                  SyndromeCodec codec = SyndromeCodec::Sparse);

    /** Write out any staged frames. */
    bool flush();

    /** Block until one Verdict frame arrives; false on EOF/error. */
    bool readVerdict(FleetClientVerdict &out);

  private:
    int fd_ = -1;
    uint32_t numDetectorBits_ = 0;

    std::vector<uint8_t> sendBuf_;
    FleetFrameBuffer recvFrames_;
};

} // namespace net
} // namespace astrea

#endif // ASTREA_NET_FLEET_CLIENT_HH
