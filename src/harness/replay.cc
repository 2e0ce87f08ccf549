#include "harness/replay.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>

#include "audit/auditor.hh"
#include "common/weight.hh"
#include "decoders/registry.hh"
#include "harness/block_engine.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/trace_store.hh"

namespace astrea
{

namespace
{

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    char buf[4096];
    size_t n;
    out.clear();
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

bool
parseConfig(const telemetry::JsonValue &ctx, ExperimentConfig &cfg,
            std::string *error_out)
{
    if (ctx.kind != telemetry::JsonValue::Object) {
        *error_out = "document embeds no context object (run info was "
                     "not installed when it was written)";
        return false;
    }
    cfg.distance = static_cast<uint32_t>(ctx["distance"].asUint(3));
    cfg.rounds = static_cast<uint32_t>(ctx["rounds"].asUint(0));
    cfg.basis = ctx["basis"].asString("Z") == "X" ? Basis::X : Basis::Z;
    cfg.physicalErrorRate = ctx["p"].asNumber(1e-4);
    cfg.driftSpread = ctx["drift_spread"].asNumber(0.0);
    cfg.driftSeed = ctx["drift_seed"].asUint(12345);
    cfg.cxSchedule = ctx["cx_schedule"].asString("standard") ==
                             "hook_aligned"
                         ? CxSchedule::HookAligned
                         : CxSchedule::Standard;
    return true;
}

/**
 * Rebuild the captured decoder against a freshly-built context, via
 * the registry's display-name + describeConfig round-trip. The replay
 * turns recordMatching on (absent from captures) so Astrea-G reports
 * the chosen matching; the Monte-Carlo run that wrote the capture
 * leaves it off.
 */
std::unique_ptr<Decoder>
buildDecoder(const ReplayCapture &capture, const ExperimentContext &ctx,
             std::string *error_out)
{
    DecoderOptions opts = decoderOptionsFor(ctx);
    opts.astreaG.recordMatching = true;
    return DecoderRegistry::global().makeFromDescription(
        capture.decoderName, capture.decoderConfig, opts, error_out);
}

double
quantizedToDecades(WeightSum w)
{
    if (w == kInfiniteWeightSum)
        return std::numeric_limits<double>::infinity();
    return static_cast<double>(w) / kWeightScale;
}

std::string
formatDecades(double d)
{
    std::ostringstream os;
    os << std::setprecision(4) << d;
    return os.str();
}

/**
 * Narrate one decode: the defects, each defect's surviving candidate
 * pairs under the Wth filter (infinite Wth for decoders without one),
 * the chosen matching and its per-pair weights, and the verdict.
 */
void
narrateRecord(std::ostream &out, const ReplayRecord &rec,
              const DecodeResult &dr, const GlobalWeightTable &gwt,
              double wth_decades, const ReplayOptions &options)
{
    const auto &defects = rec.syndrome;
    const WeightSum wth = std::isinf(wth_decades)
                              ? kInfiniteWeightSum
                              : decadesToQuantized(wth_decades);

    out << "  defects (" << defects.size() << "):";
    for (uint32_t d : defects)
        out << ' ' << d;
    out << '\n';

    if (std::isinf(wth_decades))
        out << "  candidate pairs (no weight filter):\n";
    else
        out << "  candidate pairs (Wth = " << formatDecades(wth_decades)
            << " decades):\n";
    for (size_t i = 0; i < defects.size(); i++) {
        // Surviving pairs, lightest first — the LWT row this defect
        // would load in hardware. The boundary counts as a candidate.
        std::vector<std::pair<WeightSum, int>> cands;
        for (size_t j = 0; j < defects.size(); j++) {
            if (i == j)
                continue;
            WeightSum pw = gwt.effectiveWeight(defects[i], defects[j]);
            if (pw <= wth)
                cands.push_back({pw, static_cast<int>(j)});
        }
        WeightSum bw = gwt.pairWeight(defects[i], defects[i]);
        if (bw <= wth)
            cands.push_back({bw, -1});
        std::sort(cands.begin(), cands.end());

        out << "    defect[" << i << "]=" << defects[i] << ':';
        size_t shown = 0;
        for (auto [pw, j] : cands) {
            if (shown == options.maxCandidatesPerDefect) {
                out << " [+" << cands.size() - shown << " more]";
                break;
            }
            if (j < 0)
                out << " (boundary, " << formatDecades(quantizedToDecades(pw))
                    << ')';
            else
                out << " (" << defects[static_cast<size_t>(j)] << ", "
                    << formatDecades(quantizedToDecades(pw)) << ')';
            shown++;
        }
        if (cands.empty())
            out << " none (filtered out)";
        out << '\n';
    }

    if (dr.gaveUp) {
        out << "  chosen matching: none (decoder gave up)\n";
    } else if (dr.matchedPairs.empty()) {
        out << "  chosen matching: not reported (weight "
            << formatDecades(dr.matchingWeight) << " decades)\n";
    } else {
        out << "  chosen matching (weight "
            << formatDecades(dr.matchingWeight) << " decades):\n";
        for (auto [a, b] : dr.matchedPairs) {
            uint32_t da = defects[static_cast<size_t>(a)];
            if (b < 0) {
                out << "    " << da << " -- boundary ("
                    << formatDecades(quantizedToDecades(
                           gwt.pairWeight(da, da)))
                    << ")\n";
            } else {
                uint32_t db = defects[static_cast<size_t>(b)];
                out << "    " << da << " -- " << db << " ("
                    << formatDecades(quantizedToDecades(
                           gwt.effectiveWeight(da, db)))
                    << ")\n";
            }
        }
    }

    char pred[32], actual[32];
    std::snprintf(pred, sizeof(pred), "0x%llx",
                  static_cast<unsigned long long>(dr.obsMask));
    std::snprintf(actual, sizeof(actual), "0x%llx",
                  static_cast<unsigned long long>(rec.actualObs));
    out << "  verdict: predicted obs " << pred << ", actual " << actual
        << " -> "
        << (dr.gaveUp ? "give-up"
                      : (dr.obsMask != rec.actualObs ? "logical error"
                                                     : "success"))
        << ", " << dr.cycles << " cycles\n";

    if (!rec.auditDone)
        return;

    // Records written by the accuracy auditor carry the oracle's
    // verdict; narrate the divergence and re-derive the oracle's
    // matching, with the auditor's own engine selection and in the
    // same weight domain (quantized LWT decades or exact GWT
    // decades), so the disagreement is visible pair by pair.
    const telemetry::TraceAuditVerdict &audit = rec.audit;
    char oobs[32];
    std::snprintf(oobs, sizeof(oobs), "0x%llx",
                  static_cast<unsigned long long>(audit.oracleObs));
    out << "  audit oracle (" << (audit.oracleDp ? "dp" : "mwpm")
        << ", " << (audit.quantized ? "quantized" : "exact")
        << " weights): weight " << formatDecades(audit.oracleWeight)
        << " decades, obs " << oobs
        << (audit.mismatch ? " [observable mismatch]" : "") << '\n';
    out << "  weight gap vs production: "
        << formatDecades(rec.matchingWeight - audit.oracleWeight)
        << " decades\n";

    if (defects.empty())
        return;
    auto pair_weight = [&](uint32_t a, uint32_t b) {
        if (audit.quantized)
            return static_cast<double>(gwt.pairWeight(a, b)) /
                   kWeightScale;
        return gwt.exactWeight(a, b);
    };
    const AccuracyAuditor::Oracle oracle =
        AccuracyAuditor::oracleMatch(gwt, defects, audit.quantized);
    out << "  oracle matching (weight " << formatDecades(oracle.weight)
        << " decades):\n";
    for (auto [a, b] : oracle.pairs) {
        uint32_t da = defects[static_cast<size_t>(a)];
        if (b < 0)
            out << "    " << da << " -- boundary ("
                << formatDecades(pair_weight(da, da)) << ")\n";
        else {
            uint32_t db = defects[static_cast<size_t>(b)];
            out << "    " << da << " -- " << db << " ("
                << formatDecades(pair_weight(da, db)) << ")\n";
        }
    }
}

/** One decode: the top level of a trace detail, or a "recent" entry. */
ReplayRecord
parseRecord(const telemetry::JsonValue &r)
{
    ReplayRecord rec;
    rec.traceId =
        telemetry::parseTraceIdHex(r["trace_id"].asString(""));
    rec.shot = r["shot"].asUint(0);
    rec.stream = static_cast<uint32_t>(r["stream"].asUint(0));
    for (const telemetry::JsonValue &d : r["defects"].arr)
        rec.syndrome.push_back(static_cast<uint32_t>(d.asUint(0)));
    rec.hw = static_cast<uint32_t>(r["hw"].asUint(rec.syndrome.size()));
    rec.obsMask = r["obs_mask"].asUint(0);
    rec.actualObs = r["actual_obs"].asUint(0);
    rec.gaveUp = r["gave_up"].asBool(false);
    rec.logicalError = r["logical_error"].asBool(false);
    rec.latencyNs = r["latency_ns"].asNumber(0.0);
    rec.cycles = r["cycles"].asUint(0);
    rec.matchingWeight = r["matching_weight"].asNumber(0.0);
    const telemetry::JsonValue &audit = r["audit"];
    rec.audited = audit["sampled"].asBool(false);
    rec.auditDone = audit["done"].asBool(false);
    rec.audit.mismatch = audit["mismatch"].asBool(false);
    rec.audit.oracleDp = audit["oracle"].asString("") == "dp";
    rec.audit.quantized = audit["quantized"].asBool(true);
    rec.audit.oracleWeight = audit["oracle_weight"].asNumber(0.0);
    rec.audit.oracleObs = audit["oracle_obs"].asUint(0);
    return rec;
}

} // namespace

bool
loadCapture(const std::string &path, ReplayCapture &out,
            std::string *error_out)
{
    std::string text;
    if (!readFile(path, text)) {
        *error_out = "cannot read capture file: " + path;
        return false;
    }
    telemetry::JsonValue doc;
    if (!parseJson(text, doc) ||
        doc.kind != telemetry::JsonValue::Object) {
        *error_out = "malformed capture JSON: " + path;
        return false;
    }
    if (doc.has("capture_schema_version")) {
        *error_out = "schema-1 flight-recorder capture: replay it with "
                     "a build from before captures became trace-store "
                     "dumps";
        return false;
    }
    const uint64_t version = doc["trace_schema_version"].asUint(0);
    if (version != telemetry::kTraceSchemaVersion) {
        *error_out = "not a trace or capture document (trace schema "
                     "version " + std::to_string(version) +
                     ", expected " +
                     std::to_string(telemetry::kTraceSchemaVersion) + ")";
        return false;
    }
    if (!parseConfig(doc["context"], out.config, error_out))
        return false;

    const telemetry::JsonValue &dec = doc["decoder_config"];
    out.decoderName = dec["name"].asString("");
    out.decoderConfig = dec;
    if (out.decoderName.empty()) {
        *error_out = "document embeds no decoder description";
        return false;
    }

    // The trigger's own entry in "recent" may hold a cut defect list;
    // the top level carries the whole one, so it replaces that entry.
    out.triggerReason = doc["trigger"].asString("");
    ReplayRecord trigger = parseRecord(doc);
    out.records.clear();
    for (const telemetry::JsonValue &r : doc["recent"].arr) {
        ReplayRecord rec = parseRecord(r);
        if (rec.stream != trigger.stream || rec.shot != trigger.shot)
            out.records.push_back(std::move(rec));
    }
    out.records.push_back(std::move(trigger));
    return true;
}

ReplaySummary
replayCapture(const ReplayCapture &capture,
              const ReplayOptions &options, std::ostream &out)
{
    ReplaySummary summary;
    const bool is_capture = !capture.triggerReason.empty();

    out << "replay: " << capture.decoderName << " at d="
        << capture.config.distance << " p="
        << capture.config.physicalErrorRate << ", "
        << capture.records.size() << " records";
    if (!capture.records.empty()) {
        const ReplayRecord &last = capture.records.back();
        if (is_capture)
            out << ", trigger " << capture.triggerReason << " at shot "
                << last.shot;
        else
            out << ", trace " << telemetry::traceIdHex(last.traceId)
                << " at shot " << last.shot;
    }
    out << '\n';

    ExperimentContext ctx(capture.config);
    std::string error;
    std::unique_ptr<Decoder> decoder =
        buildDecoder(capture, ctx, &error);
    if (decoder == nullptr) {
        out << "replay: " << error << '\n';
        summary.records = capture.records.size();
        summary.mismatches = capture.records.size();
        return summary;
    }

    double wth_decades = std::numeric_limits<double>::infinity();
    if (capture.decoderName == "Astrea-G")
        wth_decades = capture.decoderConfig["weight_threshold_decades"]
                          .asNumber(wth_decades);

    DecodeResult dr;
    DecodeScratch scratch;
    const std::string decoder_name = decoder->name();
    telemetry::DecodeTracer &tracer = telemetry::decodeTracer();
    for (size_t i = 0; i < capture.records.size(); i++) {
        const ReplayRecord &rec = capture.records[i];
        summary.records++;
        // The document's own decode is the trigger of a capture, or
        // the trace itself; a record selected by trace id is the
        // record of interest too.
        const bool is_last = i + 1 == capture.records.size();
        const bool is_trigger = is_last && is_capture;
        const bool of_interest =
            is_last ||
            (options.traceId != 0 && rec.traceId == options.traceId);

        if (rec.truncated()) {
            // Re-decoding part of the syndrome would report a verdict
            // the decoder never gave, so the record is only listed.
            summary.truncated++;
            out << "record " << i << " (shot " << rec.shot
                << ", stream " << rec.stream << "): HW " << rec.hw
                << ", " << rec.syndrome.size()
                << " defects kept [truncated, not verified]\n";
            continue;
        }
        // Each record decodes under the tracer as a batch of one, on
        // its own stream and shot, so a kept trace of the replay holds
        // the record's stage spans.
        tracer.beginBatch(rec.stream, rec.shot, decoder_name.c_str(), 0);
        telemetry::traceShotBegin(0);
        decoder->decodeInto(rec.syndrome, dr, scratch);
        if (tracer.active())
            tracer.finishShot(0, shotOutcome(dr, rec.actualObs,
                                             rec.syndrome));
        tracer.endBatch();

        // The verdict must reproduce exactly: the decoders are pure
        // functions of (GWT, defects), and the GWT is rebuilt from the
        // captured config. Wall-clock latency is not compared (it is
        // measured, not modeled, for software decoders).
        bool match = dr.obsMask == rec.obsMask &&
                     dr.gaveUp == rec.gaveUp &&
                     dr.cycles == rec.cycles &&
                     std::abs(dr.matchingWeight - rec.matchingWeight) <=
                         1e-9;
        if (!match)
            summary.mismatches++;
        if (dr.gaveUp)
            summary.gaveUps++;
        // Same criterion as the harness shot loop: any disagreement
        // between the predicted and actual flips (give-ups predict 0).
        if (dr.obsMask != rec.actualObs)
            summary.logicalErrors++;

        // A plain trace has no recent decodes: its one record is the
        // point of the replay.
        bool narrate = options.verboseAll || !match ||
                       ((options.verbose || !is_capture) && of_interest);
        if (narrate || is_trigger) {
            out << "record " << i << " (shot " << rec.shot
                << ", stream " << rec.stream << "): HW " << rec.hw;
            if (rec.traceId != 0)
                out << ", trace "
                    << telemetry::traceIdHex(rec.traceId);
            out << (is_trigger ? " [trigger]" : "")
                << (match ? " [reproduced]" : " [MISMATCH]") << '\n';
        }
        if (narrate)
            narrateRecord(out, rec, dr, ctx.gwt(), wth_decades,
                          options);
        if (!match) {
            out << "  recorded: obs mask 0x" << std::hex << rec.obsMask
                << std::dec << ", gave_up " << rec.gaveUp << ", "
                << rec.cycles << " cycles, weight "
                << formatDecades(rec.matchingWeight) << "\n"
                << "  replayed: obs mask 0x" << std::hex << dr.obsMask
                << std::dec << ", gave_up " << dr.gaveUp << ", "
                << dr.cycles << " cycles, weight "
                << formatDecades(dr.matchingWeight) << '\n';
        }
    }

    if (options.traceId != 0) {
        bool found = false;
        for (const ReplayRecord &rec : capture.records)
            found = found || rec.traceId == options.traceId;
        if (!found)
            out << "replay: trace "
                << telemetry::traceIdHex(options.traceId)
                << " not present in this capture\n";
    }

    out << "replay: " << summary.records << " records, ";
    if (summary.truncated > 0)
        out << summary.truncated << " truncated (not verified), ";
    out << summary.gaveUps << " give-ups, " << summary.logicalErrors
        << " logical errors, " << summary.mismatches << " mismatches";
    if (summary.ok() && summary.records > summary.truncated)
        out << " -- verdicts reproduced";
    out << '\n';
    return summary;
}

} // namespace astrea
