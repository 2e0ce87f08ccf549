/**
 * @file
 * Layer probes for the traced run. Each probe wraps one public entry
 * point of the program from outside and records a span per call:
 *
 *  - TimedDecoder: a Decoder returned by a wrapping DecoderFactory;
 *    times decodeBatch and folds the inner decoder's stats() into the
 *    shared DecoderCounters when it is destroyed;
 *  - wrapAccountHook / wrapVerdictSink: the fleet's account hook
 *    (DecodeServiceCore::accountFleetShot) and verdict sink
 *    (FleetServer::deliver).
 *
 * On the fleet path a decodeBatch call opens a fleet.batch span that
 * stays open until that batch's last verdict has been delivered, so
 * the batch is the parent of its decode span and of each shot's
 * account and deliver spans. The fleet calls decodeBatch, then the
 * hook and the sink once per shot, all on the shard worker thread;
 * the open batch is tracked per thread. Outside the armed window the
 * wrappers only forward.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "harness/decode_service.hh"
#include "harness/fleet.hh"
#include "harness/memory_experiment.hh"
#include "net/fleet_server.hh"
#include "spans.hh"

namespace perfbench
{

/** Decoder stats() summed over every wrapped instance. */
struct DecoderCounters
{
    // AstreaDecoder::stats()
    uint64_t astreaDecodes = 0;
    uint64_t astreaHw6 = 0;
    // AstreaGDecoder::stats()
    uint64_t gDecodes = 0;
    uint64_t gPipeline = 0;
    uint64_t gBudgetExpirations = 0;
    uint64_t gRequeues = 0;
    uint64_t gLwtKept = 0;
    uint64_t gLwtFiltered = 0;
};

/** Shared state of one traced phase. */
struct Probes
{
    explicit Probes(size_t span_capacity) : spans(span_capacity) {}

    SpanRecorder spans;
    /** Open a fleet.batch span around each decodeBatch + its shots. */
    bool fleetBatches = false;
    /** Probes record only while armed (the measured window). */
    std::atomic<bool> armed{false};

    std::mutex mu;
    DecoderCounters counters;

    // Fleet-side tallies kept by the sink wrapper.
    static constexpr unsigned kMaxShards = 16;
    std::atomic<uint64_t> deliveredPerShard[kMaxShards] = {};
    std::atomic<uint64_t> queueDepthMax{0};
};

/** Wrap a factory so every decoder it makes is a TimedDecoder. */
astrea::DecoderFactory timedFactory(astrea::DecoderFactory inner,
                                    Probes &probes);

/** Timed account hook forwarding to core.accountFleetShot. */
std::function<void(size_t, double, bool)>
wrapAccountHook(astrea::DecodeServiceCore &core, Probes &probes);

/** Timed verdict sink forwarding to server.deliver; also samples the
 *  target shard's queue depth and counts verdicts per shard. */
std::function<void(const astrea::FleetVerdict &)>
wrapVerdictSink(astrea::net::FleetServer &server,
                const astrea::DecodeFleet &fleet, Probes &probes);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
