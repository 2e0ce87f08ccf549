#include "harness/memory_experiment.hh"

#include <algorithm>
#include <mutex>

#include "audit/auditor.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "dem/extractor.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/export.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/telemetry.hh"

namespace astrea
{

ExperimentContext::ExperimentContext(const ExperimentConfig &config)
    : config_(config)
{
    layout_ = std::make_unique<SurfaceCodeLayout>(config.distance);

    MemoryExperimentSpec spec;
    spec.distance = config.distance;
    spec.rounds = config.rounds;
    spec.basis = config.basis;
    spec.noise = NoiseModel::uniform(config.physicalErrorRate);
    spec.cxSchedule = config.cxSchedule;
    if (config.driftSpread > 0.0) {
        Rng drift_rng(config.driftSeed);
        noiseMap_ = std::make_unique<NoiseMap>(NoiseMap::randomDrift(
            layout_->numQubits(), config.driftSpread, drift_rng));
        spec.noiseMap = noiseMap_.get();
    }
    circuit_ =
        std::make_unique<Circuit>(buildMemoryCircuit(*layout_, spec));

    model_ = std::make_unique<ErrorModel>(extractErrorModel(*circuit_));
    graph_ = std::make_unique<DecodingGraph>(*model_);
    gwt_ = std::make_unique<GlobalWeightTable>(*graph_);
    sampler_ = std::make_unique<DemSampler>(*model_);
}

DecoderOptions
decoderOptionsFor(const ExperimentContext &ctx)
{
    const ExperimentConfig &cfg = ctx.config();
    DecoderOptions opts;
    opts.gwt = &ctx.gwt();
    opts.graph = &ctx.graph();
    opts.detectorInfo = &ctx.circuit().detectorInfo();
    opts.totalRounds = (cfg.rounds ? cfg.rounds : cfg.distance) + 1;
    opts.distance = cfg.distance;
    opts.physicalErrorRate = cfg.physicalErrorRate;
    return opts;
}

DecoderFactory
registryFactory(std::string name)
{
    return [name](const ExperimentContext &ctx) {
        return makeDecoder(name, decoderOptionsFor(ctx));
    };
}

DecoderFactory
mwpmFactory()
{
    return registryFactory("mwpm");
}

DecoderFactory
astreaFactory(AstreaConfig config)
{
    return [config](const ExperimentContext &ctx) {
        DecoderOptions opts = decoderOptionsFor(ctx);
        opts.astrea = config;
        return makeDecoder("astrea", opts);
    };
}

DecoderFactory
astreaGFactory(AstreaGConfig config)
{
    return [config](const ExperimentContext &ctx) {
        // The registry resolves Wth <= 0 from the regime opts carry.
        DecoderOptions opts = decoderOptionsFor(ctx);
        opts.astreaG = config;
        return makeDecoder("astrea-g", opts);
    };
}

DecoderFactory
unionFindFactory(UnionFindConfig config)
{
    return [config](const ExperimentContext &ctx) {
        DecoderOptions opts = decoderOptionsFor(ctx);
        opts.unionFind = config;
        return makeDecoder("union-find", opts);
    };
}

DecoderFactory
cliqueFactory()
{
    return registryFactory("clique");
}

DecoderFactory
lutFactory()
{
    return registryFactory("lut");
}

DecoderFactory
greedyFactory()
{
    return registryFactory("greedy");
}

DecoderFactory
windowedFactory(DecoderFactory inner, StreamingConfig config)
{
    return [inner, config](const ExperimentContext &ctx) {
        DecoderOptions opts = decoderOptionsFor(ctx);
        opts.streaming = config;
        return makeWindowedDecoder(opts, inner(ctx));
    };
}

std::string
experimentConfigJson(const ExperimentConfig &config)
{
    telemetry::JsonWriter w;
    w.beginObject()
        .kv("distance", uint64_t{config.distance})
        .kv("rounds", uint64_t{config.rounds})
        .kv("basis", config.basis == Basis::X ? "X" : "Z")
        .kv("p", config.physicalErrorRate)
        .kv("drift_spread", config.driftSpread)
        .kv("drift_seed", config.driftSeed)
        .kv("cx_schedule",
            config.cxSchedule == CxSchedule::HookAligned
                ? "hook_aligned"
                : "standard")
        .endObject();
    return w.str();
}

std::string
decoderDescriptionJson(const Decoder &decoder)
{
    telemetry::JsonWriter w;
    w.beginObject().kv("name", decoder.name());
    decoder.describeConfig(w);
    w.endObject();
    return w.str();
}

void
ExperimentResult::merge(const ExperimentResult &other)
{
    logicalErrors.successes += other.logicalErrors.successes;
    logicalErrors.trials += other.logicalErrors.trials;
    hammingWeights.merge(other.hammingWeights);
    latencyNs.merge(other.latencyNs);
    latencyNontrivialNs.merge(other.latencyNontrivialNs);
    latencyHist.merge(other.latencyHist);
    latencyNontrivialHist.merge(other.latencyNontrivialHist);
    gaveUps += other.gaveUps;
    gaveUpHw.merge(other.gaveUpHw);
}

ExperimentResult
runMemoryExperiment(const ExperimentContext &ctx,
                    const DecoderFactory &factory, uint64_t shots,
                    uint64_t seed, unsigned threads)
{
    if (threads == 0)
        threads = defaultWorkerCount();
    Rng root(seed);

    ASTREA_SPAN("experiment.run");
    ExperimentResult total;
    std::mutex merge_mutex;

    if (telemetry::traceRetention().enabled ||
        telemetry::TraceStore::global().captureArmed()) {
        // Start a run: install its context and decoder descriptions so
        // a capture or dumped trace triggered mid-run embeds enough to
        // replay it.
        auto probe = factory(ctx);
        telemetry::TraceStore::global().setRunInfo(
            experimentConfigJson(ctx.config()),
            decoderDescriptionJson(*probe));
    }

    // ASTREA_AUDIT_RATE > 0 shadow-audits a fraction of shots against
    // the exact oracle (audit/auditor.hh), the same machinery the
    // decode service exposes via --audit-rate.
    std::unique_ptr<AccuracyAuditor> auditor;
    {
        AuditConfig audit_cfg = AuditConfig::fromEnv();
        if (audit_cfg.sampleRate > 0.0) {
            auditor = std::make_unique<AccuracyAuditor>(ctx.gwt(),
                                                        audit_cfg);
            auditor->start();
        }
    }

    parallelFor(shots, threads,
                [&](unsigned worker, uint64_t begin, uint64_t end) {
        Rng rng = root.split(worker);
        auto decoder = factory(ctx);
        telemetry::TraceWriter *trace = telemetry::globalTraceFast();
        const uint64_t trace_stride = telemetry::traceSampleStride();

        ExperimentResult local;
        BitVec dets(ctx.circuit().numDetectors());
        BitVec obs(ctx.circuit().numObservables());

        // Batch-oriented hot loop: sample a block of shots into one
        // SyndromeBatch, decode it through the allocation-free batch
        // path, then do the (cold) accounting. All buffers below are
        // reused across blocks, so steady state allocates nothing.
        constexpr uint64_t kBatchShots = 64;
        SyndromeBatch batch;
        std::vector<DecodeResult> results;
        DecodeScratch scratch;
        std::vector<uint64_t> actuals;
        std::vector<uint32_t> obs_indices;

        // Per-thread tail-sampling tracer (ASTREA_TRACE) and capture
        // recorder (ASTREA_CAPTURE_*): ids derive from (seed, worker,
        // shot), matching the serve path. The name is hoisted so the
        // block loop stays allocation-free.
        telemetry::DecodeTracer &tracer = telemetry::decodeTracer();
        const std::string decoder_name = decoder->name();

        for (uint64_t block = begin; block < end; block += kBatchShots) {
            const uint64_t n = std::min(kBatchShots, end - block);
            tracer.beginBatch(worker, block, decoder_name.c_str(),
                              seed +
                                  0x9E3779B97F4A7C15ull * (worker + 1));
            batch.clear();
            actuals.clear();
            for (uint64_t i = 0; i < n; i++) {
                ctx.sampler().sample(rng, dets, obs);
                dets.onesIndicesInto(scratch.defects);
                batch.add(scratch.defects);
                uint64_t actual = 0;
                obs.onesIndicesInto(obs_indices);
                for (auto o : obs_indices)
                    actual |= (1ull << o);
                actuals.push_back(actual);
            }

            {
                // Batch-level counters are always live (the section
                // cost amortizes over the whole batch).
                telemetry::PerfSection sec(telemetry::PerfStage::Batch,
                                           n);
                decoder->decodeBatch(batch, results, scratch);
            }

            for (uint64_t i = 0; i < n; i++) {
                const uint64_t s = block + i;
                const DecodeResult &dr = results[i];
                const size_t hw = batch.hw(i);
                const uint64_t trace_id =
                    tracer.active()
                        ? tracer.shotId(static_cast<uint32_t>(i))
                        : 0;
                local.hammingWeights.add(hw);
                if (dr.gaveUp) {
                    local.gaveUps++;
                    local.gaveUpHw.add(hw);
                }

                const uint64_t actual = actuals[i];
                const bool error = (dr.obsMask != actual);

                local.logicalErrors.trials++;
                if (error)
                    local.logicalErrors.successes++;

                local.latencyNs.add(dr.latencyNs);
                local.latencyHist.add(dr.latencyNs);
                if (hw > 2) {
                    local.latencyNontrivialNs.add(dr.latencyNs);
                    local.latencyNontrivialHist.add(dr.latencyNs);
                }

                bool audited = false;
                if (auditor != nullptr && hw > 0)
                    audited = auditor->offer(s, worker, batch.at(i),
                                             dr, actual, trace_id);

                if (tracer.active()) {
                    telemetry::TraceShotOutcome out;
                    out.latencyNs = dr.latencyNs;
                    out.cycles = dr.cycles;
                    out.matchingWeight = dr.matchingWeight;
                    out.obsMask = dr.obsMask;
                    out.actualObs = actual;
                    out.gaveUp = dr.gaveUp;
                    out.logicalError = error;
                    out.audited = audited;
                    auto sp = batch.at(i);
                    out.defects = sp.data();
                    out.hw = static_cast<uint32_t>(sp.size());
                    tracer.finishShot(static_cast<uint32_t>(i), out);
                }

                if (trace != nullptr && s % trace_stride == 0) {
                    telemetry::JsonWriter w;
                    w.beginObject()
                        .kv("type", "shot")
                        .kv("shot", s)
                        .kv("worker", uint64_t{worker})
                        .kv("hw", uint64_t{hw})
                        .kv("latency_ns", dr.latencyNs)
                        .kv("gave_up", dr.gaveUp)
                        .kv("logical_error", error)
                        .endObject();
                    trace->line(w.str());
                }
            }
            tracer.endBatch();
        }

        // Fold the worker's tallies into the global registry once per
        // chunk: the per-shot hot loop stays macro-free and the global
        // counters still see every shot.
        if (telemetry::enabled()) {
            auto &reg = telemetry::MetricsRegistry::global();
            reg.counter("experiment.shots")
                .add(local.logicalErrors.trials);
            reg.counter("experiment.logical_errors")
                .add(local.logicalErrors.successes);
            reg.counter("experiment.gave_ups").add(local.gaveUps);
        }

        std::lock_guard<std::mutex> lock(merge_mutex);
        total.merge(local);
    });

    if (auditor != nullptr) {
        auditor->stop();  // Joins the pool and drains the queue.
        const AccuracyAuditor::Snapshot snap = auditor->snapshot();
        if (telemetry::enabled()) {
            auto &reg = telemetry::MetricsRegistry::global();
            reg.counter("audit.sampled").add(snap.sampled);
            reg.counter("audit.completed").add(snap.completed);
            reg.counter("audit.optimal").add(snap.optimal);
            reg.counter("audit.suboptimal").add(snap.suboptimal);
            reg.counter("audit.observable_mismatches")
                .add(snap.observableMismatches);
            reg.counter("audit.queue_drops").add(snap.queueDrops);
            reg.counter("audit.give_ups_audited")
                .add(snap.giveUpsAudited);
            reg.counter("audit.give_up_oracle_success")
                .add(snap.giveUpOracleSuccess);
        }
        inform("audit: " + std::to_string(snap.completed) +
               " shots audited, " + std::to_string(snap.optimal) +
               " optimal, " + std::to_string(snap.suboptimal) +
               " suboptimal, " +
               std::to_string(snap.observableMismatches) +
               " observable mismatches, " +
               std::to_string(snap.queueDrops) + " queue drops");
    }

    if (telemetry::TraceWriter *trace = telemetry::globalTraceFast()) {
        telemetry::JsonWriter w;
        w.beginObject()
            .kv("type", "experiment")
            .kv("decoder", factory(ctx)->name())
            .kv("distance", uint64_t{ctx.config().distance})
            .kv("p", ctx.config().physicalErrorRate)
            .kv("shots", total.logicalErrors.trials)
            .kv("logical_errors", total.logicalErrors.successes)
            .kv("gave_ups", total.gaveUps)
            .endObject();
        trace->line(w.str());
    }
    return total;
}

} // namespace astrea
