#include "probes.hh"

#include <algorithm>
#include <limits>

#include "astrea/astrea_decoder.hh"
#include "astrea/astrea_g_decoder.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

/** The fleet.batch span open on this shard worker, and how many of
 *  its shots still await delivery. */
struct OpenBatch
{
    uint32_t span = 0;
    uint32_t shots = 0;
    uint32_t remaining = 0;
};
thread_local OpenBatch t_batch;

uint32_t
saturate32(uint64_t v)
{
    return static_cast<uint32_t>(
        std::min<uint64_t>(v, std::numeric_limits<uint32_t>::max()));
}

class TimedDecoder : public astrea::Decoder
{
  public:
    TimedDecoder(std::unique_ptr<astrea::Decoder> inner, Probes &probes)
        : inner_(std::move(inner)), probes_(probes)
    {
    }

    ~TimedDecoder() override
    {
        std::lock_guard<std::mutex> lock(probes_.mu);
        DecoderCounters &c = probes_.counters;
        if (auto *a = dynamic_cast<astrea::AstreaDecoder *>(inner_.get())) {
            const astrea::AstreaStats &s = a->stats();
            c.astreaDecodes += s.decodes;
            c.astreaHw6 += s.hw6Invocations;
        }
        if (auto *g =
                dynamic_cast<astrea::AstreaGDecoder *>(inner_.get())) {
            const astrea::AstreaGStats &s = g->stats();
            c.gDecodes += s.decodes;
            c.gPipeline += s.pipelineDecodes;
            c.gBudgetExpirations += s.budgetExpirations;
            c.gRequeues += s.requeues;
            c.gLwtKept += s.lwtPairsKept;
            c.gLwtFiltered += s.lwtPairsFiltered;
        }
    }

    void
    decodeInto(std::span<const uint32_t> defects,
               astrea::DecodeResult &out,
               astrea::DecodeScratch &scratch) override
    {
        inner_->decodeInto(defects, out, scratch);
    }

    void
    decodeBatch(const astrea::SyndromeBatch &batch,
                std::vector<astrea::DecodeResult> &results,
                astrea::DecodeScratch &scratch) override
    {
        if (!probes_.armed.load(std::memory_order_relaxed)) {
            t_batch = {};
            inner_->decodeBatch(batch, results, scratch);
            return;
        }
        const uint32_t shots = static_cast<uint32_t>(batch.size());
        const uint64_t t0 = nowNs();
        uint32_t batch_span = 0;
        if (probes_.fleetBatches && shots > 0) {
            batch_span =
                probes_.spans.open(SpanName::FleetBatch, 0, t0);
            t_batch = {batch_span, shots, shots};
        }
        const uint32_t id =
            probes_.spans.open(SpanName::AstreaDecode, batch_span, t0);
        inner_->decodeBatch(batch, results, scratch);
        probes_.spans.close(id, nowNs(), shots);
    }

    std::string name() const override { return inner_->name(); }

    void
    describeConfig(astrea::telemetry::JsonWriter &w) const override
    {
        inner_->describeConfig(w);
    }

  private:
    std::unique_ptr<astrea::Decoder> inner_;
    Probes &probes_;
};

} // namespace

astrea::DecoderFactory
timedFactory(astrea::DecoderFactory inner, Probes &probes)
{
    return [inner = std::move(inner),
            &probes](const astrea::ExperimentContext &ctx)
               -> std::unique_ptr<astrea::Decoder> {
        return std::make_unique<TimedDecoder>(inner(ctx), probes);
    };
}

std::function<void(size_t, double, bool)>
wrapAccountHook(astrea::DecodeServiceCore &core, Probes &probes)
{
    return [&core, &probes](size_t hw, double latency_ns, bool gave_up) {
        if (t_batch.remaining == 0 &&
            !probes.armed.load(std::memory_order_relaxed)) {
            core.accountFleetShot(hw, latency_ns, gave_up);
            return;
        }
        const uint32_t id = probes.spans.open(
            SpanName::HarnessAccount,
            t_batch.remaining > 0 ? t_batch.span : 0, nowNs());
        core.accountFleetShot(hw, latency_ns, gave_up);
        probes.spans.close(id, nowNs());
    };
}

std::function<void(const astrea::FleetVerdict &)>
wrapVerdictSink(astrea::net::FleetServer &server,
                const astrea::DecodeFleet &fleet, Probes &probes)
{
    return [&server, &fleet, &probes](const astrea::FleetVerdict &v) {
        if (t_batch.remaining == 0 &&
            !probes.armed.load(std::memory_order_relaxed)) {
            server.deliver(v);
            return;
        }
        // Shed verdicts come from the submitting reader thread, which
        // has no open batch.
        const bool in_batch = !v.shed && t_batch.remaining > 0;
        const uint32_t parent = in_batch ? t_batch.span : 0;
        const uint32_t id = probes.spans.open(
            SpanName::NetDeliver, parent, nowNs(), v.streamId, v.seq);
        server.deliver(v);
        const uint64_t t1 = nowNs();
        probes.spans.close(id, t1, saturate32(v.latencyNs));

        const unsigned shard = fleet.shardFor(v.streamId);
        if (shard < Probes::kMaxShards)
            probes.deliveredPerShard[shard].fetch_add(
                1, std::memory_order_relaxed);
        const uint64_t depth = fleet.queueDepth(shard);
        uint64_t seen = probes.queueDepthMax.load(std::memory_order_relaxed);
        while (depth > seen &&
               !probes.queueDepthMax.compare_exchange_weak(seen, depth))
        {
        }
        if (in_batch && --t_batch.remaining == 0)
            probes.spans.close(t_batch.span, t1, t_batch.shots);
    };
}

} // namespace perfbench
