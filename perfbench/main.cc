/**
 * @file
 * rnr_perfbench: runs one benchmark workload and prints its report,
 * ending with one JSON line of metrics.
 *
 *   rnr_perfbench --workload <name> [--seed <n>] [--seconds <s>]
 *                 [--trace 0|1] --farmd <rnr_farmd path> [--spans <path>]
 *   rnr_perfbench selftest
 *
 * It works in the current directory, which it fills with trace, result
 * and checkpoint stores; run.py gives it a scratch directory and builds
 * both binaries.  Exit status: 0 with a result line (whose "correct"
 * says whether every output check passed), 2 on bad arguments, 1 when
 * the workload could not be measured at all.
 */
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "harness/json_write.h"

extern char **environ;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: rnr_perfbench --workload <name> [--seed <n>] "
                 "[--seconds <s>] [--trace 0|1]\n"
                 "                     --farmd <path> [--spans <path>]\n"
                 "       rnr_perfbench selftest\n");
    return 2;
}

/** Drops every RNR_* variable so only the benchmark configures the
 *  simulator, then silences progress and logging. */
void
resetEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "RNR_", 4) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("RNR_PROGRESS", "0", 1);
    setenv("RNR_LOG", "0", 1);
}

} // namespace

int
main(int argc, char **argv)
{
    resetEnvironment();
    if (argc == 2 && std::strcmp(argv[1], "selftest") == 0)
        return perfbench::selftest() == 0 ? 0 : 1;

    perfbench::Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "1") == 0;
        else if (a == "--farmd") {
            char buf[PATH_MAX];
            if (!realpath(v, buf)) {
                std::fprintf(stderr, "no rnr_farmd at %s\n", v);
                return 2;
            }
            o.farmd = buf;
        } else if (a == "--spans")
            o.spans_out = v;
        else
            return usage();
    }
    bool known = false;
    for (const std::string &n : perfbench::workloadNames())
        known |= n == o.workload;
    if (!known || o.seconds <= 0 || o.farmd.empty())
        return usage();

    perfbench::Outcome out;
    try {
        out = perfbench::runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rnr_perfbench: %s\n", e.what());
        return 1;
    }

    for (const std::string &line : out.lines)
        std::printf("%s\n", line.c_str());
    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + rnr::jsonU64(out.attempted) +
            ", \"failed\": " + rnr::jsonU64(out.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const perfbench::Metric &m = out.metrics[i];
        json += (i ? ", " : "") + rnr::jsonQuote(m.name) +
                ": {\"value\": " + rnr::jsonDouble(m.value) +
                ", \"unit\": " + rnr::jsonQuote(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
