/**
 * @file
 * The result of one benchmark run: correctness verdict, shot counts,
 * named metrics with units, and free-form detail lines. main.cc
 * prints the details as "# ..." lines and then the result as the
 * single JSON object run.py forwards.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> details;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a failed output check (makes the run incorrect). */
    void
    fail(const std::string &why)
    {
        correct = false;
        details.push_back("CHECK FAILED: " + why);
    }

    template <class... Args>
    void
    note(const char *fmt, Args... args)
    {
        char buf[512];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        details.push_back(buf);
    }
};

/** 64-bit mixer used for output digests. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** One serve_paced or serve_flood run (serve.cc). */
RunResult runServe(const Options &opt);

/** The traced run's LER-engine probe (ler.cc): adds the ler.*,
 *  astrea_g.* and harness.other_ns_per_shot metrics and its output
 *  checks to r. */
void probeLerEngine(uint64_t seed, RunResult &r);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
