/**
 * @file
 * Tests for the telemetry subsystem: sharded metrics merging under
 * concurrency, percentile math, the JSON writer, the registry's JSON
 * snapshot and leveled logging — plus the give-up Hamming-weight
 * histogram the harness exports.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "harness/latency_stats.hh"
#include "harness/memory_experiment.hh"
#include "telemetry/export.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"

using namespace astrea;
using namespace astrea::telemetry;

namespace
{

/**
 * Minimal recursive-descent JSON parser for round-trip checks. Parses
 * into a tagged tree; good enough to validate exporter output without
 * external dependencies.
 */
struct LocalJsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<LocalJsonValue> arr;
    std::map<std::string, LocalJsonValue> obj;

    bool has(const std::string &k) const { return obj.count(k) != 0; }
    const LocalJsonValue &operator[](const std::string &k) const
    {
        static LocalJsonValue missing;
        auto it = obj.find(k);
        return it == obj.end() ? missing : it->second;
    }
};

class MiniJsonParser
{
  public:
    explicit MiniJsonParser(const std::string &text) : s_(text) {}

    bool
    parse(LocalJsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() && std::isspace(
                   static_cast<unsigned char>(s_[pos_]))) {
            pos_++;
        }
    }

    bool
    literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        pos_++;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_++];
                switch (e) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'u':
                    if (pos_ + 4 > s_.size())
                        return false;
                    // Escaped control characters only show up for
                    // exotic input; keep the escape verbatim.
                    out += "\\u" + s_.substr(pos_, 4);
                    pos_ += 4;
                    break;
                  default: return false;
                }
            } else {
                out += c;
            }
        }
        if (pos_ >= s_.size())
            return false;
        pos_++;  // Closing quote.
        return true;
    }

    bool
    parseValue(LocalJsonValue &out)
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{') {
            pos_++;
            out.kind = LocalJsonValue::Object;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                pos_++;
                return true;
            }
            while (true) {
                skipWs();
                std::string k;
                if (!parseString(k))
                    return false;
                skipWs();
                if (pos_ >= s_.size() || s_[pos_++] != ':')
                    return false;
                LocalJsonValue v;
                if (!parseValue(v))
                    return false;
                out.obj[k] = v;
                skipWs();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    pos_++;
                    continue;
                }
                if (s_[pos_] == '}') {
                    pos_++;
                    return true;
                }
                return false;
            }
        }
        if (c == '[') {
            pos_++;
            out.kind = LocalJsonValue::Array;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                pos_++;
                return true;
            }
            while (true) {
                LocalJsonValue v;
                if (!parseValue(v))
                    return false;
                out.arr.push_back(v);
                skipWs();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    pos_++;
                    continue;
                }
                if (s_[pos_] == ']') {
                    pos_++;
                    return true;
                }
                return false;
            }
        }
        if (c == '"') {
            out.kind = LocalJsonValue::String;
            return parseString(out.str);
        }
        if (c == 't') {
            out.kind = LocalJsonValue::Bool;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = LocalJsonValue::Bool;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = LocalJsonValue::Null;
            return literal("null");
        }
        // Number.
        size_t start = pos_;
        if (s_[pos_] == '-')
            pos_++;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            pos_++;
        }
        if (pos_ == start)
            return false;
        out.kind = LocalJsonValue::Number;
        out.num = std::stod(s_.substr(start, pos_ - start));
        return true;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

bool
parseJson(const std::string &text, LocalJsonValue &out)
{
    MiniJsonParser p(text);
    return p.parse(out);
}

/** RAII: enable telemetry for a test and restore the off state after. */
struct TelemetryOn
{
    TelemetryOn() { setEnabled(true); }
    ~TelemetryOn() { setEnabled(false); }
};

} // namespace

TEST(JsonWriterTest, StructureAndEscaping)
{
    JsonWriter w;
    w.beginObject();
    w.kv("name", "a\"b\\c\nd");
    w.kv("count", uint64_t{42});
    w.kv("ratio", 0.25);
    w.kv("neg", int64_t{-7});
    w.kv("flag", true);
    w.key("nan").value(std::nan(""));
    w.key("list").beginArray();
    w.value(uint64_t{1}).value(uint64_t{2}).value(uint64_t{3});
    w.endArray();
    w.key("empty").beginObject().endObject();
    w.endObject();

    ASSERT_TRUE(w.balanced());
    LocalJsonValue doc;
    ASSERT_TRUE(parseJson(w.str(), doc)) << w.str();
    EXPECT_EQ(doc["name"].str, "a\"b\\c\nd");
    EXPECT_EQ(doc["count"].num, 42.0);
    EXPECT_EQ(doc["ratio"].num, 0.25);
    EXPECT_EQ(doc["neg"].num, -7.0);
    EXPECT_TRUE(doc["flag"].b);
    EXPECT_EQ(doc["nan"].kind, LocalJsonValue::Null);
    ASSERT_EQ(doc["list"].arr.size(), 3u);
    EXPECT_EQ(doc["list"].arr[1].num, 2.0);
    EXPECT_EQ(doc["empty"].kind, LocalJsonValue::Object);
}

TEST(MetricsTest, CounterConcurrentMergeIsLossless)
{
    Counter c;
    constexpr uint64_t kTotal = 200000;
    constexpr unsigned kWorkers = 8;
    parallelFor(kTotal, kWorkers,
                [&](unsigned, uint64_t begin, uint64_t end) {
                    for (uint64_t i = begin; i < end; i++)
                        c.inc();
                });
    EXPECT_EQ(c.value(), kTotal);

    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, IntHistogramConcurrentMergeIsLossless)
{
    IntHistogram h(16);
    constexpr uint64_t kTotal = 100000;
    parallelFor(kTotal, 8, [&](unsigned, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; i++)
            h.add(i % 20);  // Keys 17..19 land in overflow.
    });
    IntHistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.total, kTotal);
    uint64_t in_bins = 0;
    for (uint64_t b : snap.bins)
        in_bins += b;
    EXPECT_EQ(in_bins + snap.overflow, kTotal);
    EXPECT_EQ(snap.overflow, kTotal / 20 * 3);
    EXPECT_EQ(snap.bins[3], kTotal / 20);
    EXPECT_EQ(snap.maxObserved(), 16u);
}

TEST(MetricsTest, GaugeTracksMax)
{
    Gauge g;
    g.recordMax(5);
    g.recordMax(3);
    EXPECT_EQ(g.value(), 5);
    g.recordMax(11);
    EXPECT_EQ(g.value(), 11);
    g.set(2);
    EXPECT_EQ(g.value(), 2);
}

TEST(MetricsTest, LatencyMetricPercentilesAndExtremes)
{
    LatencyMetric m;
    // 1..1000 ns uniformly: log2 buckets are coarse, but the clamp to
    // observed extremes and interpolation must keep percentiles within
    // a factor of 2 and the min/max/mean exact.
    parallelFor(1000, 4, [&](unsigned, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; i++)
            m.record(static_cast<double>(i + 1));
    });
    LatencySnapshot s = m.snapshot();
    EXPECT_EQ(s.count, 1000u);
    EXPECT_DOUBLE_EQ(s.minNs, 1.0);
    EXPECT_DOUBLE_EQ(s.maxNs, 1000.0);
    EXPECT_NEAR(s.meanNs, 500.5, 0.5);
    EXPECT_GE(s.p50Ns, 250.0);
    EXPECT_LE(s.p50Ns, 1000.0);
    EXPECT_GE(s.p90Ns, 450.0);
    EXPECT_LE(s.p90Ns, 1000.0);
    EXPECT_GE(s.p99Ns, s.p90Ns);
    EXPECT_LE(s.p99Ns, 1000.0);

    m.reset();
    EXPECT_EQ(m.snapshot().count, 0u);
}

TEST(MetricsTest, LatencyHistogramPercentileMath)
{
    // 50 ns buckets: 10000 samples at exactly i ns for i in [0, 10000)
    // make percentiles analytically predictable to within one bucket.
    LatencyHistogram h(50.0, 20000.0);
    for (int i = 0; i < 10000; i++)
        h.add(static_cast<double>(i));
    EXPECT_NEAR(h.p50Ns(), 5000.0, 50.0);
    EXPECT_NEAR(h.p90Ns(), 9000.0, 50.0);
    EXPECT_NEAR(h.p99Ns(), 9900.0, 50.0);

    // A single sample: every percentile is that sample.
    LatencyHistogram one(50.0, 20000.0);
    one.add(123.0);
    EXPECT_DOUBLE_EQ(one.p50Ns(), 123.0);
    EXPECT_DOUBLE_EQ(one.p99Ns(), 123.0);

    // Overflow samples report the observed maximum.
    LatencyHistogram ovf(50.0, 100.0);
    ovf.add(50000.0);
    EXPECT_DOUBLE_EQ(ovf.p99Ns(), 50000.0);
}

TEST(MetricsTest, RegistryReferencesSurviveReset)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    Counter &c = reg.counter("test.reset_stability");
    c.add(7);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    c.add(3);
    // Same name must resolve to the same object.
    EXPECT_EQ(reg.counter("test.reset_stability").value(), 3u);
    reg.reset();
}

TEST(ExportTest, MetricsJsonRoundTrip)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    reg.counter("rt.counter").add(17);
    reg.gauge("rt.gauge").set(-4);
    reg.intHistogram("rt.hist").add(2, 5);
    reg.intHistogram("rt.hist").add(200);  // Overflow.
    reg.latency("rt.lat").record(128.0);

    LocalJsonValue doc;
    ASSERT_TRUE(parseJson(metricsToJson(reg), doc));

    EXPECT_EQ(doc["counters"]["rt.counter"].num, 17.0);
    EXPECT_EQ(doc["gauges"]["rt.gauge"].num, -4.0);
    const LocalJsonValue &h = doc["int_histograms"]["rt.hist"];
    EXPECT_EQ(h["total"].num, 6.0);
    EXPECT_EQ(h["overflow"].num, 1.0);
    EXPECT_EQ(h["bins"]["2"].num, 5.0);
    const LocalJsonValue &l = doc["latency_histograms"]["rt.lat"];
    EXPECT_EQ(l["count"].num, 1.0);
    EXPECT_DOUBLE_EQ(l["min_ns"].num, 128.0);
    EXPECT_DOUBLE_EQ(l["max_ns"].num, 128.0);
    EXPECT_DOUBLE_EQ(l["p50_ns"].num, 128.0);
    reg.reset();
}

TEST(LoggingTest, LevelFilterDropsBelowThreshold)
{
    LogLevel saved = logLevel();

    setLogLevel(LogLevel::Warn);
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_TRUE(logEnabled(LogLevel::Error));

    ::testing::internal::CaptureStderr();
    inform("should be dropped");
    warn("should appear");
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("should be dropped"), std::string::npos);
    EXPECT_NE(err.find("warn: should appear"), std::string::npos);

    setLogLevel(LogLevel::Off);
    ::testing::internal::CaptureStderr();
    error("silent");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    setLogLevel(saved);
}

TEST(HarnessTelemetryTest, GiveUpHwHistogramIsRecorded)
{
    // A crippled Astrea (HW limit 2) at a noisy operating point gives
    // up on every HW > 2 syndrome; the harness must record the HW of
    // each give-up.
    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 2e-2;
    ExperimentContext ctx(cfg);

    AstreaConfig acfg;
    acfg.maxHammingWeight = 2;
    ExperimentResult r = runMemoryExperiment(ctx, astreaFactory(acfg),
                                             2000, 99, 2);
    ASSERT_GT(r.gaveUps, 0u);
    EXPECT_EQ(r.gaveUpHw.total(), r.gaveUps);
    // Every give-up happened at HW > 2 by construction.
    EXPECT_EQ(r.gaveUpHw.at(0), 0u);
    EXPECT_EQ(r.gaveUpHw.at(1), 0u);
    EXPECT_EQ(r.gaveUpHw.at(2), 0u);
    EXPECT_GE(r.gaveUpHw.maxObserved(), 3u);
    // Latency percentile accessors are populated alongside.
    EXPECT_GE(r.latencyHist.samples(), r.logicalErrors.trials);
}

TEST(HarnessTelemetryTest, ExperimentPopulatesRegistry)
{
    TelemetryOn on;
    MetricsRegistry::global().reset();

    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 1e-2;
    ExperimentContext ctx(cfg);
    ExperimentResult r =
        runMemoryExperiment(ctx, astreaFactory(), 1000, 7, 2);

    auto counters = MetricsRegistry::global().counterValues();
    ASSERT_TRUE(counters.count("experiment.shots"));
    EXPECT_EQ(counters["experiment.shots"], 1000u);
    ASSERT_TRUE(counters.count("astrea.decodes"));
    EXPECT_GT(counters["astrea.decodes"], 0u);
    EXPECT_EQ(counters["experiment.logical_errors"],
              r.logicalErrors.successes);

    auto hists = MetricsRegistry::global().intHistogramValues();
    ASSERT_TRUE(hists.count("astrea.decode_hw"));
    EXPECT_EQ(hists["astrea.decode_hw"].total, 1000u);
    MetricsRegistry::global().reset();
}
