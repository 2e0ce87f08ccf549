#include "harness/trace_io.hh"

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "harness/block_engine.hh"

namespace astrea
{

namespace
{

constexpr char kMagic[4] = {'A', 'S', 'T', 'R'};
constexpr uint32_t kVersion = 1;

void
writeAll(std::FILE *f, const void *data, size_t bytes,
         const std::string &path)
{
    if (std::fwrite(data, 1, bytes, f) != bytes)
        fatal("short write to " + path);
}

void
readAll(std::FILE *f, void *data, size_t bytes, const std::string &path)
{
    if (std::fread(data, 1, bytes, f) != bytes)
        fatal("short read from " + path);
}

} // namespace

SyndromeTrace
recordTrace(const ExperimentContext &ctx, uint64_t shots, uint64_t seed)
{
    SyndromeTrace trace;
    trace.numDetectors = ctx.circuit().numDetectors();
    trace.numObservables = ctx.circuit().numObservables();
    // Each worker writes its blocks' shots in place, so the vector
    // holds them in shot order at any thread count.
    trace.shots.resize(shots);
    runBlocks(blockCount(shots, kBlockShots), 0,
              [&](unsigned worker, std::atomic<uint64_t> &next_block) {
        ShotStream stream(seed, shots, worker);
        while (stream.nextBlock(next_block)) {
            stream.sample(ctx, stream.remaining(),
                          [&](uint64_t s, std::span<const uint32_t> defects,
                              uint64_t actual) {
                trace.shots[s].defects.assign(defects.begin(),
                                              defects.end());
                trace.shots[s].observables = actual;
            });
        }
    });
    return trace;
}

void
saveTrace(const SyndromeTrace &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open " + path + " for writing");

    writeAll(f, kMagic, sizeof(kMagic), path);
    writeAll(f, &kVersion, sizeof(kVersion), path);
    writeAll(f, &trace.numDetectors, sizeof(uint32_t), path);
    writeAll(f, &trace.numObservables, sizeof(uint32_t), path);
    uint64_t count = trace.shots.size();
    writeAll(f, &count, sizeof(count), path);

    for (const auto &shot : trace.shots) {
        ASTREA_CHECK(shot.defects.size() < 0x10000,
                     "trace shot too dense");
        uint16_t n = static_cast<uint16_t>(shot.defects.size());
        writeAll(f, &n, sizeof(n), path);
        if (n) {
            writeAll(f, shot.defects.data(), n * sizeof(uint32_t),
                     path);
        }
        uint8_t obs = static_cast<uint8_t>(shot.observables);
        writeAll(f, &obs, sizeof(obs), path);
    }
    if (std::fclose(f) != 0)
        fatal("error closing " + path);
}

SyndromeTrace
loadTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open " + path);

    char magic[4];
    uint32_t version = 0;
    SyndromeTrace trace;
    uint64_t count = 0;
    readAll(f, magic, sizeof(magic), path);
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        std::fclose(f);
        fatal(path + " is not a syndrome trace");
    }
    readAll(f, &version, sizeof(version), path);
    if (version != kVersion) {
        std::fclose(f);
        fatal("unsupported trace version in " + path);
    }
    readAll(f, &trace.numDetectors, sizeof(uint32_t), path);
    readAll(f, &trace.numObservables, sizeof(uint32_t), path);
    readAll(f, &count, sizeof(count), path);
    if (count > (1ull << 40)) {
        std::fclose(f);
        fatal("implausible trace length in " + path);
    }

    trace.shots.reserve(count);
    for (uint64_t s = 0; s < count; s++) {
        uint16_t n = 0;
        readAll(f, &n, sizeof(n), path);
        TraceShot shot;
        shot.defects.resize(n);
        if (n) {
            readAll(f, shot.defects.data(), n * sizeof(uint32_t),
                    path);
        }
        for (auto d : shot.defects) {
            if (d >= trace.numDetectors) {
                std::fclose(f);
                fatal("trace defect index out of range in " + path);
            }
        }
        uint8_t obs = 0;
        readAll(f, &obs, sizeof(obs), path);
        shot.observables = obs;
        trace.shots.push_back(std::move(shot));
    }
    std::fclose(f);
    return trace;
}

ReplayResult
replayTrace(const SyndromeTrace &trace, Decoder &decoder)
{
    ReplayResult result;
    for (const auto &shot : trace.shots) {
        DecodeResult dr = decoder.decode(shot.defects);
        result.shots++;
        if (dr.gaveUp)
            result.gaveUps++;
        if (dr.obsMask != shot.observables)
            result.logicalErrors++;
    }
    return result;
}

} // namespace astrea
