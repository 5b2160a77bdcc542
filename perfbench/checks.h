/**
 * @file
 * Output checks, the counter digest and the statistics the benchmark
 * reports.  Everything here is a pure function of simulator results or
 * of measured samples, so selftest.cc can feed it tampered cells.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/scheduler.h"

namespace perfbench {

/**
 * Invariants every simulated cell must satisfy; returns "" when the
 * cell passes, else the first violated rule.  Per iteration:
 *   dram_bytes_total == demand + prefetch + metadata + writeback
 *   pf_useful <= pf_issued
 * and the cell must have simulated something (cycles, instructions).
 */
std::string checkCell(const rnr::ExperimentResult &r);

/** True when every simulated counter of @p a and @p b is identical
 *  (every IterStats field of every iteration, plus the footprint and
 *  metadata-size fields). */
bool sameCounters(const rnr::ExperimentResult &a,
                  const rnr::ExperimentResult &b);

/**
 * Checks one cell served by the farm: it must be done (not poisoned),
 * pass checkCell(), repeat the counters of @p earlier (the same cell's
 * previous reply, or null) and, when @p prewarmed, come from the
 * daemon's cache rather than a fresh simulation.  "" when it passes.
 */
std::string checkFarmReply(const rnr::CellOutcome &o, bool prewarmed,
                           const rnr::ExperimentResult *earlier);

/**
 * FNV-1a64 over every simulated counter of @p cells, taken in key
 * order so the digest does not depend on the order cells ran in.
 * Duplicate keys must carry identical counters (checked by callers).
 */
std::uint64_t counterDigest(const std::vector<rnr::ExperimentResult> &cells);

/** Median of @p v; 0 for an empty vector. */
double median(std::vector<double> v);

/** The tail statistic of the choosing-metrics method. */
struct Tail {
    double value = 0;      ///< the sample at that percentile
    double percentile = 0; ///< share of samples at or below it, in %
    std::size_t samples = 0;
};

/**
 * Highest percentile that still has at least ten samples beyond it:
 * the 11th-largest sample.  With fewer than 11 samples no percentile
 * qualifies and the maximum is reported at 100%.
 */
Tail tailOf(std::vector<double> v);

/** Modelled quality of rnr-combined against none (simulated time). */
struct Modelled {
    double speedup = 0;   ///< geomean amortised speedup
    double coverage = 0;  ///< geomean miss coverage
    double accuracy = 0;  ///< geomean accuracy
    double offchip = 0;   ///< geomean steady-iteration DRAM-byte ratio
    double paper_err = 0; ///< mean |per-app speedup - paper| / paper
    std::size_t pairs = 0;
};

/**
 * Pairs each app/input's rnr-combined cell with its none cell (both
 * must be present; ideal-LLC cells are skipped) and aggregates the
 * paper's metrics over the pairs.
 * paper_err averages over the apps present, against the paper's
 * 2.11x (PageRank), 2.23x (Hyper-ANF) and 2.90x (spCG).
 */
Modelled modelledMetrics(const std::vector<rnr::ExperimentResult> &cells);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
