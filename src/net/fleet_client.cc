#include "net/fleet_client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace astrea
{
namespace net
{

namespace
{

constexpr size_t kFlushThreshold = 32 * 1024;

bool
sendAllFd(int fd, const uint8_t *data, size_t len)
{
    size_t sent = 0;
    while (sent < len) {
        ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

uint64_t
get64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; i--)
        v = (v << 8) | p[i];
    return v;
}

} // namespace

FleetClient::~FleetClient()
{
    close();
}

void
FleetClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
FleetClient::connect(const std::string &host, uint16_t port,
                     std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg + ": " + std::strerror(errno);
        close();
        return false;
    };

    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return fail("socket");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        return fail("bad address '" + host + "'");
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return fail("connect " + host + ":" + std::to_string(port));

    // The server speaks first: Hello with the detector-bit count.
    uint8_t buf[256];
    FleetFrameHeader h;
    const uint8_t *payload = nullptr;
    for (;;) {
        FleetParse st = recvFrames_.next(h, payload);
        if (st == FleetParse::Ok)
            break;
        if (st == FleetParse::Malformed)
            return fail("malformed hello");
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return fail("recv hello");
        }
        recvFrames_.append(buf, static_cast<size_t>(n));
    }
    if (h.type != FleetFrameType::Hello || h.payloadLen != 4)
        return fail("unexpected first frame");
    numDetectorBits_ = static_cast<uint32_t>(payload[0]) |
                       (static_cast<uint32_t>(payload[1]) << 8) |
                       (static_cast<uint32_t>(payload[2]) << 16) |
                       (static_cast<uint32_t>(payload[3]) << 24);
    return true;
}

bool
FleetClient::sendShot(uint32_t stream_id, uint32_t seq,
                      uint8_t priority,
                      std::span<const uint32_t> defects,
                      SyndromeCodec codec)
{
    if (fd_ < 0)
        return false;
    appendFleetSyndrome(sendBuf_, stream_id, seq, priority, defects,
                        numDetectorBits_, codec);
    if (sendBuf_.size() >= kFlushThreshold)
        return flush();
    return true;
}

bool
FleetClient::flush()
{
    if (fd_ < 0)
        return false;
    if (sendBuf_.empty())
        return true;
    const bool ok = sendAllFd(fd_, sendBuf_.data(), sendBuf_.size());
    sendBuf_.clear();
    if (!ok)
        close();
    return ok;
}

bool
FleetClient::readVerdict(FleetClientVerdict &out)
{
    if (fd_ < 0)
        return false;
    uint8_t buf[8192];
    FleetFrameHeader h;
    const uint8_t *payload = nullptr;
    for (;;) {
        FleetParse st = recvFrames_.next(h, payload);
        if (st == FleetParse::Malformed)
            return false;
        if (st == FleetParse::Ok) {
            if (h.type != FleetFrameType::Verdict || h.payloadLen != 9)
                return false;
            out.streamId = h.streamId;
            out.seq = h.seq;
            out.obsMask = get64(payload);
            out.gaveUp = (payload[8] & kVerdictGaveUp) != 0;
            out.shed = (payload[8] & kVerdictShed) != 0;
            out.error = (payload[8] & kVerdictError) != 0;
            return true;
        }
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0)
            return false;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        recvFrames_.append(buf, static_cast<size_t>(n));
    }
}

} // namespace net
} // namespace astrea
