#include "decoders/decoder.hh"

#include "telemetry/decode_trace.hh"

namespace astrea
{

std::vector<DecodeResult>
makeResultSlots(size_t n)
{
    std::vector<DecodeResult> slots(n);
    for (DecodeResult &r : slots)
        r.matchedPairs.reserve(32);
    return slots;
}

DecodeScratch &
DecodeScratch::inner()
{
    if (!inner_)
        inner_ = std::make_unique<DecodeScratch>();
    return *inner_;
}

void
Decoder::decodeBatch(const SyndromeBatch &batch,
                     std::vector<DecodeResult> &results,
                     DecodeScratch &scratch)
{
    // Resize up only: shrinking would free matchedPairs capacity the
    // next, larger batch wants back.
    if (results.size() < batch.size())
        results.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        telemetry::traceShotBegin(static_cast<uint32_t>(i));
        decodeInto(batch.at(i), results[i], scratch);
    }
}

DecodeResult
Decoder::decode(const std::vector<uint32_t> &defects)
{
    DecodeResult result;
    DecodeScratch scratch;
    decodeInto(defects, result, scratch);
    return result;
}

} // namespace astrea
