/**
 * @file
 * TCP ingest front-end for the decode fleet.
 *
 * Accepts connections on the fleet port, sends a Hello frame carrying
 * the workload's detector-bit count, then reads Syndrome frames
 * (net/fleet_protocol.hh) off each connection, decodes their codec
 * payload straight into the jobs' defect lists and submits them to the
 * DecodeFleet: the frames of one recv() go over in groups of up to
 * maxBatch jobs, one submitGroup() call each, and none waits for the
 * next recv().
 * Verdict frames are written back on the connection the shot arrived
 * on (streams are logical: one connection multiplexes any number of
 * stream ids, so a thousand streams do not need a thousand sockets —
 * one reader thread per connection suffices). A flush's decoded
 * verdicts are buffered per shard and written with one send per
 * connection when the flush's last (unmarked) verdict arrives.
 *
 * A malformed frame (bad magic/version/type, oversized payload,
 * undecodable codec bytes) closes that connection cleanly after
 * counting it; other connections are unaffected. Per-connection state
 * (frame buffer, one maxBatch job group, write buffer) is reused, so
 * steady-state ingest performs no heap allocations.
 */

#ifndef ASTREA_NET_FLEET_SERVER_HH
#define ASTREA_NET_FLEET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/fleet.hh"
#include "net/fleet_protocol.hh"

namespace astrea
{
namespace net
{

class FleetServer
{
  public:
    explicit FleetServer(DecodeFleet &fleet);
    ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /** Bind + accept; port 0 picks an ephemeral port (see port()). */
    bool start(const std::string &bind_addr, uint16_t port,
               std::string *error);
    void stop();

    uint16_t port() const { return port_; }

    /**
     * Write a verdict frame back to the connection the shot arrived
     * on (FleetVerdict::connId); drops silently if it is gone. This
     * is the fleet's verdict sink.
     *
     * Shed and error verdicts are written at once, from any thread.
     * A decoded verdict is buffered in its shard's outbox, which only
     * the thread pumping that shard may touch; the flush's unmarked
     * verdict (FleetVerdict::more == false) then writes every
     * connection the flush touched with one send each. So when
     * pumpShard returns, each verdict it produced has been passed to
     * send, or its connection is closed.
     */
    void deliver(const FleetVerdict &v);

  private:
    struct Conn;
    struct Outbox;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    std::shared_ptr<Conn> findConn(uint32_t conn_id);
    void writeNow(const FleetVerdict &v);
    void writeOut(Outbox &box);

    DecodeFleet &fleet_;
    std::thread acceptor_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> running_{false};

    std::mutex connsMu_;
    std::vector<std::shared_ptr<Conn>> conns_;  ///< Indexed by connId.
    std::vector<std::thread> readers_;

    /** One per fleet shard, sized at construction. */
    std::vector<std::unique_ptr<Outbox>> outboxes_;
};

} // namespace net
} // namespace astrea

#endif // ASTREA_NET_FLEET_SERVER_HH
