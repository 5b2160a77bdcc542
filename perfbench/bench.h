/**
 * @file
 * The benchmark's workloads and what one run reports.  See README.md
 * for why each workload exists and what every metric means.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload; ///< replay-kernel | zoo-sweep | farm-mixed
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;   ///< traced run: per-layer metrics
    std::string farmd;    ///< path of the rnr_farmd binary
    std::string spans_out = "spans.json"; ///< traced run's span file
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one run prints. */
struct Outcome {
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;     ///< the final JSON line's metrics
    std::vector<std::string> lines;  ///< human-readable report lines
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Runs one workload in the current directory (which it fills with
 *  stores and, for a traced run, spans.json).  Throws on a failure
 *  that prevents measuring at all. */
Outcome runBenchmark(const Options &opts);

/** The benchmark's own tests; returns the number of failures. */
int selftest();

// ---- set-up pieces shared with the self-test ----

class Spans;

/** One Table III stand-in: an app and the named synthetic input. */
struct Pair {
    std::string app, input;
};

/** What capturing a set of traces cost and produced. */
struct Corpus {
    double gen_s = 0;     ///< input generation (makeWorkload)
    double emit_s = 0;    ///< native execution emitting the trace
    double capture_s = 0; ///< trace encoding and publishing
    std::uint64_t records = 0;
    std::uint64_t raw_bytes = 0;
    std::uint64_t stored_bytes = 0;
    std::uint64_t captures = 0;
};

/** Points the trace, checkpoint and result stores at @p dir and drops
 *  every in-process memo, so what follows starts cold. */
void pointStoresAt(const std::string &dir);

/** Generates each pair's input and captures its trace into the trace
 *  store (one thread per core); spans go under @p parent. */
Corpus captureCorpus(const std::vector<Pair> &pairs, Spans &spans,
                     std::uint64_t parent);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
