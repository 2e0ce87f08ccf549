/**
 * @file
 * Open-loop send schedule for the paced serve workload.
 *
 * Shot g is due at start + g / rate. The pacer sleeps until the next
 * due time, wakes, and sends every shot that has come due since —
 * so the offered load stays at `rate` even when a wake-up is late,
 * and each shot's latency is measured from its due time (a late
 * sender shows up in the latency instead of silently lowering the
 * load). Lateness = send time - due time.
 */

#ifndef PERFBENCH_SCHEDULE_HH
#define PERFBENCH_SCHEDULE_HH

#include <cstdint>

namespace perfbench
{

class OpenLoopSchedule
{
  public:
    OpenLoopSchedule(double shots_per_s, uint64_t start_ns)
        : periodNs_(1e9 / shots_per_s), startNs_(start_ns)
    {
    }

    /** Due time of shot g. */
    uint64_t
    dueNs(uint64_t g) const
    {
        return startNs_ + static_cast<uint64_t>(
                              static_cast<long double>(g) * periodNs_);
    }

    /** Number of shots due at or before now (shots 0..n-1). */
    uint64_t
    dueCount(uint64_t now_ns) const
    {
        if (now_ns < startNs_)
            return 0;
        uint64_t n = static_cast<uint64_t>(
                         static_cast<long double>(now_ns - startNs_) /
                         periodNs_) +
                     1;
        // Guard the float division at exact due-time boundaries.
        while (n > 0 && dueNs(n - 1) > now_ns)
            n--;
        while (dueNs(n) <= now_ns)
            n++;
        return n;
    }

    /** How late shot g went out when sent at send_ns (0 if early). */
    uint64_t
    latenessNs(uint64_t g, uint64_t send_ns) const
    {
        const uint64_t due = dueNs(g);
        return send_ns > due ? send_ns - due : 0;
    }

  private:
    long double periodNs_;
    uint64_t startNs_;
};

} // namespace perfbench

#endif // PERFBENCH_SCHEDULE_HH
