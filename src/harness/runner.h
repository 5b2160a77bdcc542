/**
 * @file
 * Experiment runner: builds the machine, the workload and the per-core
 * prefetchers for an ExperimentConfig, simulates the requested number of
 * algorithm iterations and collects the per-iteration counters.
 *
 * Results are cached through harness/result_cache.h (in-process memo +
 * optional text file) keyed by ExperimentConfig::key(), so the per-figure
 * bench binaries share one simulation of each matrix cell instead of
 * re-simulating.  runExperiment() is thread-safe and single-flight:
 * concurrent calls with the same key block on one simulation instead of
 * racing — this is what lets SweepRunner (harness/sweep.h) saturate every
 * core on a cold cache.
 *
 * Below the result cache sits the trace store (tracestore/trace_store.h,
 * RNR_TRACE_STORE=0 to disable): the first simulation of a workload key
 * captures the emitted trace into a compressed on-disk corpus; every
 * further simulation of that workload — different prefetcher, control
 * mode or ideal-LLC setting, another process, another day — replays the
 * stored trace block-by-block instead of re-executing the workload
 * natively.  Replay is counter-for-counter identical to native emission
 * (tests/harness/trace_replay_test.cc asserts bit-equality).
 */
#ifndef RNR_HARNESS_RUNNER_H
#define RNR_HARNESS_RUNNER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "sim/probes.h"
#include "workloads/workload.h"

namespace rnr {

/** Instantiates the workload named by @p cfg (app + input). */
std::unique_ptr<Workload> makeWorkload(const ExperimentConfig &cfg);

/**
 * Simulates @p cfg (no caching, no locking).  When cfg.trace.enabled or
 * RNR_TRACE=1, a TraceCollector rides along for the whole run and the
 * sinks fire afterwards: the Chrome-trace JSON goes to cfg.trace.json_out
 * (or $RNR_TRACE_OUT) and the per-window replay report to stderr when
 * RNR_TRACE_REPORT=1.  Tracing never changes the returned counters.
 */
ExperimentResult runExperimentUncached(const ExperimentConfig &cfg);

/**
 * Simulates @p cfg with @p probes attached (sim/probes.h): events into
 * probes.tr (built for cfg.cores tracks), periodic counter samples into
 * probes.tm and prefetch-quality attribution into probes.at.  Always
 * simulates, never consulting or populating the result cache, because a
 * cache hit would return counters without events, samples or
 * attribution; pass `{}` to just bypass the cache.  probes.tm's series
 * land on the result as ExperimentResult::telemetry; probes.at's
 * harvest lands as ExperimentResult::attrib and is mirrored into the
 * process metrics registry (sim/attrib.h).  No instrument changes
 * the returned counters (tests/sim/trace_event_test.cc,
 * tests/harness/report_test.cc and tests/sim/attrib_test.cc assert
 * bit-equality).
 */
ExperimentResult runExperimentInstrumented(const ExperimentConfig &cfg,
                                           const Probes &probes);

/**
 * Simulates @p cfg, consulting the in-process cache and the file cache
 * (path from $RNR_CACHE_FILE, default "rnr_results.cache" in the working
 * directory; set RNR_CACHE=0 to disable persistence).
 *
 * Thread-safe.  If @p was_cached is non-null it is set to true when the
 * result came from either cache layer (or from another thread's
 * concurrent in-flight simulation of the same key) and false when this
 * call ran the simulation itself.
 */
ExperimentResult runExperiment(const ExperimentConfig &cfg,
                               bool *was_cached = nullptr);

/**
 * Simulates @p cfg start to finish (uncached, uninstrumented) and
 * additionally serializes the complete simulation state — caches,
 * MSHRs, DRAM queues, TLBs, cores, every prefetcher including the RnR
 * tables/FSM, plus the per-iteration results so far — into
 * @p snapshot_out as an rnr-ckpt-v1 blob after @p window iterations
 * complete.  @p window must be in [1, cfg.iterations).  The returned
 * result is bit-identical to an unsnapshotted run.
 */
ExperimentResult
runExperimentCheckpointed(const ExperimentConfig &cfg, unsigned window,
                          std::vector<std::uint8_t> &snapshot_out);

/**
 * Restores the state captured by runExperimentCheckpointed() and
 * continues to cfg.iterations.  The workload is fast-forwarded
 * natively (its numerics re-run; nothing is simulated), then the
 * System/Prefetchers/Harness sections are loaded, so the returned
 * result is bit-identical to the uninterrupted run.  Throws
 * ckpt::CorruptSnapshot on a truncated/corrupt/mismatched blob.
 */
ExperimentResult
runExperimentFromSnapshot(const ExperimentConfig &cfg,
                          const std::vector<std::uint8_t> &snapshot);

/**
 * CheckpointStore front door for full snapshots: restore-and-continue
 * when the store holds (cfg.key(), window), else simulate from the
 * start, snapshotting at @p window and publishing for the next caller
 * (single-flight across threads and farm worker processes).  A
 * corrupt snapshot is quarantined and re-produced once before giving
 * up on the store.  RNR_CKPT=0 always simulates from the start.
 */
ExperimentResult runExperimentResumable(const ExperimentConfig &cfg,
                                        unsigned window);

/** Convenience: the no-prefetcher baseline matching @p cfg. */
ExperimentResult runBaseline(const ExperimentConfig &cfg);

/**
 * Number of simulations this process actually ran (cache misses in
 * runExperiment plus direct runExperimentUncached calls).  Monotonic;
 * used by the concurrency tests to assert single-flight behaviour.
 */
std::uint64_t experimentsSimulated();

} // namespace rnr

#endif // RNR_HARNESS_RUNNER_H
