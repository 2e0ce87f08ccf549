/**
 * @file
 * astrea_perfbench: one benchmark run.
 *
 *   astrea_perfbench --workload serve_paced|serve_flood
 *                    --seed N --seconds S --trace 0|1
 *
 * Prints detail lines starting with "# ", then the result as one JSON
 * object on the last line. A traced run writes its spans under
 * .bench_build/spans/ in the working directory. Exits 1 when an output check failed, 2 on
 * bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "report.hh"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: astrea_perfbench --workload "
                 "serve_paced|serve_flood --seed N --seconds S "
                 "--trace 0|1\n");
    std::exit(2);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::atof(val.c_str());
        else if (key == "--trace")
            opt.trace = val == "1";
        else
            usage();
    }
    if (argc % 2 != 1 || opt.seconds <= 0)
        usage();
    astrea::setLogLevel(astrea::LogLevel::Warn);

    if (opt.workload != "serve_paced" && opt.workload != "serve_flood")
        usage();
    const perfbench::RunResult r = perfbench::runServe(opt);

    for (const std::string &d : r.details)
        std::printf("# %s\n", d.c_str());
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); i++) {
        const perfbench::Metric &m = r.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
