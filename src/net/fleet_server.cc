#include "net/fleet_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "compression/syndrome_codec.hh"

namespace astrea
{
namespace net
{

namespace
{

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

uint8_t
verdictFlags(const FleetVerdict &v)
{
    uint8_t flags = 0;
    if (v.gaveUp)
        flags |= kVerdictGaveUp;
    if (v.shed)
        flags |= kVerdictShed;
    if (v.error)
        flags |= kVerdictError;
    return flags;
}

} // namespace

/** One ingest connection; all buffers reused across frames. */
struct FleetServer::Conn
{
    int fd = -1;
    uint32_t id = 0;
    std::atomic<bool> open{true};

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    // Reader-thread-owned ingest state: the frame accumulator and the
    // jobs parsed but not yet handed to the fleet (maxBatch of them).
    FleetFrameBuffer frames;
    std::vector<FleetJob> group;

    // Serializes sends from shard workers and writeNow(), so frames
    // never interleave; writeBuf is writeNow()'s buffer.
    std::mutex writeMu;
    std::vector<uint8_t> writeBuf;
};

/** A shard's decoded verdicts of the flush in progress; owned by the
 *  thread pumping that shard. All buffers hold one full flush. */
struct FleetServer::Outbox
{
    explicit Outbox(size_t max_batch)
    {
        conns.reserve(max_batch);
        frames.reserve(max_batch * kFleetVerdictBytes);
        frameConn.reserve(max_batch);
        gather.reserve(max_batch * kFleetVerdictBytes);
    }

    std::vector<std::shared_ptr<Conn>> conns;  ///< Touched this flush.
    std::vector<uint8_t> frames;  ///< Encoded verdicts, in order.
    std::vector<uint32_t> frameConn;  ///< Index into conns per frame.
    std::vector<uint8_t> gather;  ///< One connection's frames.
};

FleetServer::FleetServer(DecodeFleet &fleet) : fleet_(fleet)
{
    outboxes_.reserve(fleet.config().shards);
    for (unsigned i = 0; i < fleet.config().shards; i++)
        outboxes_.push_back(
            std::make_unique<Outbox>(fleet.config().maxBatch));
}

FleetServer::~FleetServer()
{
    stop();
}

bool
FleetServer::start(const std::string &bind_addr, uint16_t port,
                   std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = msg + ": " + std::strerror(errno);
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return false;
    };

    if (running_)
        return fail("fleet server already running");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket");

    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1)
        return fail("bad bind address '" + bind_addr + "'");

    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind " + bind_addr + ":" + std::to_string(port));
    if (::listen(listenFd_, 64) != 0)
        return fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);

    running_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
FleetServer::stop()
{
    if (!running_.exchange(false)) {
        if (!acceptor_.joinable())
            return;
    }
    // Unblock accept() and join the acceptor before closing: closing
    // first would race its read of listenFd_, and accept() could land
    // on a descriptor number already reused elsewhere.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptor_.joinable())
        acceptor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        for (auto &c : conns_) {
            if (c && c->open.load())
                ::shutdown(c->fd, SHUT_RDWR);
        }
    }
    for (auto &t : readers_)
        t.join();
    readers_.clear();
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        conns_.clear();
    }
}

void
FleetServer::acceptLoop()
{
    while (running_) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;  // Closed by stop(), or fatal.
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->group.resize(fleet_.config().maxBatch);
        {
            std::lock_guard<std::mutex> lock(connsMu_);
            conn->id = static_cast<uint32_t>(conns_.size());
            conns_.push_back(conn);
            readers_.emplace_back(
                [this, conn] { readerLoop(conn); });
        }
        fleet_.noteConnectionOpened();

        // Hello tells the client the syndrome width to encode for.
        std::vector<uint8_t> hello;
        appendFleetHello(hello, fleet_.numDetectorBits());
        if (!sendAllFd(fd, hello.data(), hello.size())) {
            conn->open = false;
            ::shutdown(fd, SHUT_RDWR);
        }
    }
}

void
FleetServer::readerLoop(std::shared_ptr<Conn> conn)
{
    const uint8_t max_priority = fleet_.config().maxPriority;
    const uint32_t bits = fleet_.numDetectorBits();
    std::vector<FleetJob> &group = conn->group;
    uint8_t buf[8192];
    bool malformed = false;

    while (running_ && !malformed) {
        ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n == 0)
            break;  // Peer closed.
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        conn->frames.append(buf, static_cast<size_t>(n));

        // Frames parsed and jobs queued since the last hand-off; each
        // hand-off counts the frames before their verdicts can leave.
        uint64_t frames = 0;
        size_t queued = 0;
        auto hand_off = [&] {
            if (frames > 0)
                fleet_.noteFrames(frames);
            if (queued > 0)
                fleet_.submitGroup({group.data(), queued});
            frames = 0;
            queued = 0;
        };

        FleetFrameHeader h;
        const uint8_t *payload = nullptr;
        for (;;) {
            FleetParse st = conn->frames.next(h, payload);
            if (st == FleetParse::NeedMore)
                break;
            if (st == FleetParse::Malformed) {
                fleet_.noteMalformed();
                malformed = true;
                break;
            }
            frames++;
            // Only clients send Syndrome frames; anything else on an
            // ingest connection is a protocol violation.
            if (h.type != FleetFrameType::Syndrome ||
                h.payloadLen < 1) {
                fleet_.noteMalformed();
                malformed = true;
                break;
            }
            FleetJob &job = group[queued];
            size_t hw = 0;
            if (!tryDecodeDefects(payload + 1, h.payloadLen - 1u, bits,
                                  job.defects, hw)) {
                fleet_.noteMalformed();
                malformed = true;
                break;
            }
            if (hw > kFleetMaxDefects) {
                // Beyond the inline cap (decoders give up long before
                // HW 64): answer with an error verdict, after the
                // shots before it, and keep going.
                hand_off();
                FleetVerdict v;
                v.streamId = h.streamId;
                v.seq = h.seq;
                v.connId = conn->id;
                v.gaveUp = true;
                v.error = true;
                writeNow(v);
                continue;
            }
            job.streamId = h.streamId;
            job.seq = h.seq;
            job.connId = conn->id;
            job.priority = std::min<uint8_t>(payload[0], max_priority);
            job.hw = static_cast<uint16_t>(hw);
            if (++queued == group.size())
                hand_off();
        }
        // What this recv() brought goes to the fleet now.
        hand_off();
    }

    // Shut down but leave the fd open until the Conn is destroyed:
    // deliver() may race this exit, and a shut-down fd fails sends
    // harmlessly where a recycled descriptor would corrupt a stranger.
    conn->open = false;
    ::shutdown(conn->fd, SHUT_RDWR);
}

std::shared_ptr<FleetServer::Conn>
FleetServer::findConn(uint32_t conn_id)
{
    std::lock_guard<std::mutex> lock(connsMu_);
    if (conn_id < conns_.size())
        return conns_[conn_id];
    return nullptr;
}

void
FleetServer::writeNow(const FleetVerdict &v)
{
    std::shared_ptr<Conn> conn = findConn(v.connId);
    if (!conn || !conn->open.load())
        return;
    std::lock_guard<std::mutex> lock(conn->writeMu);
    conn->writeBuf.clear();
    appendFleetVerdict(conn->writeBuf, v.streamId, v.seq, v.obsMask,
                       verdictFlags(v));
    if (!sendAllFd(conn->fd, conn->writeBuf.data(),
                   conn->writeBuf.size()))
        conn->open = false;
}

void
FleetServer::deliver(const FleetVerdict &v)
{
    if (v.shed || v.error) {
        writeNow(v);
        return;
    }
    Outbox &box = *outboxes_[fleet_.shardFor(v.streamId)];
    // Newest first: a flush's verdicts mostly share one connection.
    size_t slot = SIZE_MAX;
    for (size_t k = box.conns.size(); k-- > 0;) {
        if (box.conns[k]->id == v.connId) {
            slot = k;
            break;
        }
    }
    if (slot == SIZE_MAX) {
        std::shared_ptr<Conn> conn = findConn(v.connId);
        if (conn && conn->open.load()) {
            slot = box.conns.size();
            box.conns.push_back(std::move(conn));
        }
    }
    if (slot != SIZE_MAX) {  // Else the connection is gone: drop it.
        appendFleetVerdict(box.frames, v.streamId, v.seq, v.obsMask,
                           verdictFlags(v));
        box.frameConn.push_back(static_cast<uint32_t>(slot));
    }
    if (!v.more)
        writeOut(box);
}

void
FleetServer::writeOut(Outbox &box)
{
    for (size_t k = 0; k < box.conns.size(); k++) {
        Conn &conn = *box.conns[k];
        const std::vector<uint8_t> *bytes = &box.frames;
        if (box.conns.size() > 1) {
            box.gather.clear();
            for (size_t f = 0; f < box.frameConn.size(); f++) {
                if (box.frameConn[f] != k)
                    continue;
                const uint8_t *frame =
                    box.frames.data() + f * kFleetVerdictBytes;
                box.gather.insert(box.gather.end(), frame,
                                  frame + kFleetVerdictBytes);
            }
            bytes = &box.gather;
        }
        std::lock_guard<std::mutex> lock(conn.writeMu);
        if (conn.open.load() &&
            !sendAllFd(conn.fd, bytes->data(), bytes->size()))
            conn.open = false;
    }
    box.conns.clear();
    box.frames.clear();
    box.frameConn.clear();
}

} // namespace net
} // namespace astrea
