/**
 * @file
 * Exactly-once bookkeeping for the serve workloads' verdicts, in fixed
 * memory. Shot g goes out as stream g % streams, seq g / streams; the
 * slot of g in a ring of `slots` remembers the last answered shot and
 * g's staging time.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <atomic>
#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * One sender thread stages shots in order; one receiver thread accepts
 * verdicts. A verdict is unexpected if its shot was never staged (or
 * is so old its slot was reused), a duplicate if its slot already
 * holds it.
 */
class Ledger
{
  public:
    enum class Kind
    {
        Accepted,
        Duplicate,
        Unexpected,
    };

    Ledger(uint32_t streams, uint64_t slots)
        : streams_(streams), slots_(slots), answered_(slots, ~0ull),
          sendNs_(slots, 0)
    {
    }

    /**
     * Sender: record shot g (the next in order) as staged at `now`.
     * Call it before the shot's frame is handed to the client: a
     * client may write its buffer out inside that call, and the server
     * may answer before the caller flushes.
     */
    void
    stage(uint64_t g, uint64_t now)
    {
        sendNs_[g % slots_] = now;
        sent_.store(g + 1, std::memory_order_release);
    }

    /** Receiver: classify the verdict for (stream, seq); g is its shot. */
    Kind
    accept(uint32_t stream, uint32_t seq, uint64_t &g)
    {
        g = static_cast<uint64_t>(seq) * streams_ + stream;
        const uint64_t sent = sent_.load(std::memory_order_acquire);
        if (stream >= streams_ || g >= sent || sent - g > slots_) {
            unexpected++;
            return Kind::Unexpected;
        }
        uint64_t &slot = answered_[g % slots_];
        if (slot == g) {
            duplicates++;
            return Kind::Duplicate;
        }
        slot = g;
        accepted++;
        return Kind::Accepted;
    }

    /** Staging time of an accepted shot g. */
    uint64_t sendNs(uint64_t g) const { return sendNs_[g % slots_]; }

    uint64_t accepted = 0;
    uint64_t duplicates = 0;
    uint64_t unexpected = 0;

  private:
    uint32_t streams_;
    uint64_t slots_;
    std::vector<uint64_t> answered_;
    std::vector<uint64_t> sendNs_;
    std::atomic<uint64_t> sent_{0};
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
