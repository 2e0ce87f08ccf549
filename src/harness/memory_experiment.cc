#include "harness/memory_experiment.hh"

#include "audit/auditor.hh"
#include "common/logging.hh"
#include "dem/extractor.hh"
#include "harness/block_engine.hh"
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
    ExperimentResult total;

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

    BlockOrderMerge<ExperimentResult> merged(total);
    runBlocks(blockCount(shots, kBlockShots), threads,
              [&](unsigned worker, std::atomic<uint64_t> &next_block) {
        auto decoder = factory(ctx);
        // Hoisted so the shot loop stays allocation-free.
        const std::string decoder_name = decoder->name();
        ShotStream stream(seed, shots, worker);
        while (stream.nextBlock(next_block)) {
            ExperimentResult part;
            stream.decode(ctx, stream.remaining(), *decoder,
                          decoder_name.c_str(), auditor.get(),
                          [&](uint64_t,
                              const telemetry::TraceShotOutcome &o) {
                part.hammingWeights.add(o.hw);
                if (o.gaveUp) {
                    part.gaveUps++;
                    part.gaveUpHw.add(o.hw);
                }
                part.logicalErrors.trials++;
                if (o.logicalError)
                    part.logicalErrors.successes++;

                part.latencyNs.add(o.latencyNs);
                part.latencyHist.add(o.latencyNs);
                if (o.hw > 2) {
                    part.latencyNontrivialNs.add(o.latencyNs);
                    part.latencyNontrivialHist.add(o.latencyNs);
                }
            });

            // Fold the block's tallies into the global registry once
            // per block: the per-shot hot loop stays macro-free and the
            // global counters still see every shot.
            if (telemetry::enabled()) {
                auto &reg = telemetry::MetricsRegistry::global();
                reg.counter("experiment.shots")
                    .add(part.logicalErrors.trials);
                reg.counter("experiment.logical_errors")
                    .add(part.logicalErrors.successes);
                reg.counter("experiment.gave_ups").add(part.gaveUps);
            }
            merged.add(stream.block(), std::move(part));
        }
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
    return total;
}

} // namespace astrea
