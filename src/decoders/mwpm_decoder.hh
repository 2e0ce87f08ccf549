/**
 * @file
 * Idealized software MWPM decoder (the paper's baseline, Sec. 3.3).
 *
 * Solves the matching problem exactly with the blossom algorithm on
 * unquantized weights (micro-decade fixed point), at every Hamming
 * weight, through matching/blossom.hh's boundary construction: the n
 * defects plus one virtual boundary node for odd n, each pair at
 * min(direct chain, both to the boundary). A pair resolved through the
 * boundary is reported as (i, -1) and (j, -1). Reported latency is
 * measured wall-clock time of the matching step (this is what Fig. 3
 * plots for BlossomV).
 */

#ifndef ASTREA_DECODERS_MWPM_DECODER_HH
#define ASTREA_DECODERS_MWPM_DECODER_HH

#include "decoders/decoder.hh"
#include "graph/weight_table.hh"

namespace astrea
{

/** Exact software MWPM via blossom. */
class MwpmDecoder : public Decoder
{
  public:
    explicit MwpmDecoder(const GlobalWeightTable &gwt) : gwt_(gwt) {}

    void decodeInto(std::span<const uint32_t> defects, DecodeResult &out,
                    DecodeScratch &scratch) override;
    std::string name() const override { return "MWPM"; }

  private:
    const GlobalWeightTable &gwt_;
};

} // namespace astrea

#endif // ASTREA_DECODERS_MWPM_DECODER_HH
