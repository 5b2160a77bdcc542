#include "harness/runner.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>

#include "ckpt/checkpoint.h"
#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"
#include "cpu/system.h"
#include "harness/result_cache.h"
#include "obs/log.h"
#include "harness/system_counters.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "sim/trace_event.h"
#include "tracestore/trace_reader.h"
#include "tracestore/trace_store.h"
#include "workloads/graph_gen.h"
#include "workloads/hyperanf.h"
#include "workloads/jacobi.h"
#include "workloads/labelprop.h"
#include "workloads/pagerank.h"
#include "workloads/sparse_gen.h"
#include "workloads/spcg.h"
#include "workloads/trace_replay.h"

namespace rnr {

namespace {

// ---- Single-flight bookkeeping for concurrent runExperiment calls ----

std::atomic<std::uint64_t> g_simulated{0};
std::mutex g_inflight_mu;
std::condition_variable g_inflight_cv;
std::set<std::string> g_inflight;

/** Thrown by the replay path when a stored trace fails mid-stream; the
 *  caller quarantines the entry and recaptures. */
struct CorruptTraceEntry : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/**
 * Machine + workload + prefetchers for one experiment, shared by the
 * capture (materialised) and replay (streaming) paths so they simulate
 * byte-identically.
 */
struct Sim {
    System sys;
    std::unique_ptr<Workload> wl;
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    ExperimentResult result;
    SystemCounters before;
    /** Per-core emit buffers, reused across iterations. */
    std::vector<TraceBuffer> bufs;

    Sim(const ExperimentConfig &cfg, const Probes &probes)
        : sys(machineFor(cfg)), wl(makeWorkload(cfg)), bufs(cfg.cores)
    {
        RnrPrefetcher::Options rnr_opts;
        rnr_opts.control = cfg.control;
        rnr_opts.window_size = cfg.window_size;

        for (unsigned c = 0; c < cfg.cores; ++c) {
            prefetchers.push_back(
                createPrefetcher(cfg.prefetcher, rnr_opts));
            prefetchers.back()->configureFor(*wl, c);
            sys.mem().setPrefetcher(c, prefetchers.back().get());
        }
        sys.attach(probes);

        result.config = cfg;
        result.input_bytes = wl->inputBytes();
        result.target_bytes = wl->targetBytes();
        before = SystemCounters::capture(sys);
    }

    static MachineConfig
    machineFor(const ExperimentConfig &cfg)
    {
        MachineConfig mcfg = MachineConfig::scaledDefault();
        mcfg.cores = cfg.cores;
        if (cfg.ideal_llc)
            mcfg = MachineConfig::withInfiniteLlc(mcfg);
        return mcfg;
    }

    /** Books one simulated iteration into the result. */
    void
    recordIteration(const IterationResult &run)
    {
        SystemCounters after = SystemCounters::capture(sys);
        IterStats it = after.delta(before);
        it.cycles = run.cycles();
        it.instructions = run.instructions;
        result.iterations.push_back(it);
        before = after;
    }

    /**
     * Executes the workload natively for iterations [first, last) and
     * simulates each from its materialised buffers.  When @p cap is
     * non-null every iteration's buffers are also encoded into the
     * in-progress store entry.
     */
    void
    runNative(const ExperimentConfig &cfg, unsigned first, unsigned last,
              TraceStore::Capture *cap = nullptr)
    {
        for (unsigned iter = first; iter < last; ++iter) {
            // No clear here: retargetAll() clears, and first samples
            // each buffer's size so it can reserve the next iteration's
            // records.
            wl->emitIteration(iter, iter + 1 == cfg.iterations, bufs);

            for (unsigned c = 0; cap && c < cfg.cores; ++c)
                if (TraceIoResult r = cap->add(iter, c, bufs[c]); !r) {
                    // Capture is best-effort: keep simulating, drop the
                    // half-written entry (its destructor aborts it).
                    obs::LogLine(obs::LogLevel::Warn, "tracestore")
                        .msg("capture failed")
                        .kv("workload", cfg.workloadKey())
                        .kv("why", r.message());
                    cap = nullptr;
                }

            std::vector<const TraceBuffer *> ptrs;
            for (auto &b : bufs)
                ptrs.push_back(&b);
            recordIteration(sys.run(ptrs));
        }
    }

    /** Collects the end-of-run metadata sizes (Fig 13). */
    ExperimentResult
    finish(const ExperimentConfig &cfg)
    {
        for (unsigned c = 0; c < cfg.cores; ++c)
            if (RnrPrefetcher *r = asRnr(sys.mem().prefetcher(c))) {
                result.seq_table_bytes += r->seqTableBytes();
                result.div_table_bytes += r->divTableBytes();
            }
        return std::move(result);
    }
};

/**
 * Executes the workload natively and simulates from the materialised
 * buffers (the path without a trace store, and the store's capture
 * path when @p cap is non-null).
 */
ExperimentResult
runMaterialized(const ExperimentConfig &cfg, const Probes &probes,
                TraceStore::Capture *cap)
{
    g_simulated.fetch_add(1);
    Sim sim(cfg, probes);
    sim.runNative(cfg, 0, cfg.iterations, cap);
    return sim.finish(cfg);
}

/**
 * Simulates from a validated store entry: each core streams its
 * compressed per-iteration trace block-by-block; the workload is still
 * constructed (prefetcher hints read its structures) but its expensive
 * emitIteration() never runs.  Throws CorruptTraceEntry when a file
 * fails mid-stream.
 */
ExperimentResult
runFromStore(const ExperimentConfig &cfg, const Probes &probes,
             const TraceStore::Entry &entry)
{
    g_simulated.fetch_add(1);
    Sim sim(cfg, probes);

    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        // Advance workload-held replay state (e.g. PageRank's p_curr
        // base swap) that emitIteration() would have performed.
        sim.wl->beginReplayIteration(iter);

        std::vector<StreamingTraceReader> readers(cfg.cores);
        std::vector<TraceSource *> sources;
        sources.reserve(cfg.cores);
        for (unsigned c = 0; c < cfg.cores; ++c) {
            const std::string path = entry.tracePath(iter, c);
            if (TraceIoResult r = readers[c].open(path); !r)
                throw CorruptTraceEntry(path + ": " + r.message());
            sources.push_back(&readers[c]);
        }
        const IterationResult run = sim.sys.runStreaming(sources);
        for (unsigned c = 0; c < cfg.cores; ++c)
            if (readers[c].error())
                throw CorruptTraceEntry(
                    readers[c].errorResult().message());
        sim.recordIteration(run);
    }
    return sim.finish(cfg);
}

/**
 * Trace-store front door: replay when the corpus has this workload,
 * capture-and-publish when it does not.  A corrupt entry is
 * quarantined and recaptured once before giving up on the store.
 */
ExperimentResult
runWithTraceStore(const ExperimentConfig &cfg, const Probes &probes)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = cfg.workloadKey();

    for (int attempt = 0; attempt < 2; ++attempt) {
        TraceStore::Entry entry;
        if (store.acquire(wkey, entry) == TraceStore::Acquire::Hit) {
            try {
                return runFromStore(cfg, probes, entry);
            } catch (const CorruptTraceEntry &e) {
                obs::LogLine(obs::LogLevel::Warn, "tracestore")
                    .msg("replay failed; quarantining and recapturing")
                    .kv("workload", wkey)
                    .kv("why", e.what());
                store.invalidate(wkey);
                continue;
            }
        }
        // Owner: run natively, encoding each iteration as it finishes.
        TraceStore::Capture cap =
            store.beginCapture(wkey, cfg.iterations, cfg.cores);
        ExperimentResult r = runMaterialized(cfg, probes, &cap);
        cap.publish(r.input_bytes, r.target_bytes);
        return r;
    }
    // Two corrupt replays in a row: something is systematically wrong
    // with this entry's environment; simulate without the store.
    return runMaterialized(cfg, probes, nullptr);
}

// ---- Full-state checkpoint capture / restore (src/ckpt) ----

/** Serializes the complete simulation state of @p sim after @p window
 *  finished iterations into an rnr-ckpt-v1 blob. */
std::vector<std::uint8_t>
snapshotSim(const ExperimentConfig &cfg, Sim &sim, unsigned window)
{
    ckpt::SnapshotWriter w(
        ckpt::SnapshotHeader{cfg.workloadKey(), cfg.key(), window});
    {
        // Reserved word, always 0: nothing reads it, and dropping it
        // would change the rnr-ckpt-v1 layout.
        ckpt::Ser &s = w.section(ckpt::SectionId::Meta);
        s.scalar(std::uint64_t{0});
        s.scalar(std::uint64_t{cfg.cores});
        s.scalar(std::uint64_t{cfg.iterations});
    }
    sim.sys.visitState(w.section(ckpt::SectionId::System));
    {
        ckpt::Ser &s = w.section(ckpt::SectionId::Prefetchers);
        for (auto &p : sim.prefetchers)
            p->saveState(s);
    }
    {
        ckpt::Ser &s = w.section(ckpt::SectionId::Harness);
        s.scalar(sim.result.input_bytes);
        s.scalar(sim.result.target_bytes);
        s.scalar(std::uint64_t{sim.result.iterations.size()});
        for (IterStats &it : sim.result.iterations) {
#define RNR_CKPT_ITER_FIELD(type, name) s.scalar(it.name);
            RNR_ITER_STAT_FIELDS(RNR_CKPT_ITER_FIELD)
#undef RNR_CKPT_ITER_FIELD
        }
    }
    return w.finish();
}

/** Rebuilds @p sim to the snapshot's state: native workload
 *  fast-forward plus section loads.  Throws CorruptSnapshot when any
 *  section fails to decode. */
void
restoreSim(const ExperimentConfig &cfg, Sim &sim,
           const ckpt::SnapshotReader &reader)
{
    const unsigned window =
        static_cast<unsigned>(reader.header().window);

    // Fast-forward the workload natively through the checkpointed
    // iterations: re-running the numerics leaves the workload (and
    // its RnR runtime staging) in exactly the checkpoint-time state
    // for any workload type.  The emitted records are discarded — the
    // System/Prefetchers sections stand in for simulating them.
    for (unsigned iter = 0; iter < window; ++iter)
        sim.wl->emitIteration(iter, iter + 1 == cfg.iterations, sim.bufs);

    ckpt::Deser sys = reader.section(ckpt::SectionId::System);
    sim.sys.visitState(sys);
    if (!sys.ok())
        throw ckpt::CorruptSnapshot(sys.result());

    ckpt::Deser pf = reader.section(ckpt::SectionId::Prefetchers);
    for (auto &p : sim.prefetchers)
        p->loadState(pf);
    if (!pf.ok())
        throw ckpt::CorruptSnapshot(pf.result());

    ckpt::Deser h = reader.section(ckpt::SectionId::Harness);
    h.scalar(sim.result.input_bytes);
    h.scalar(sim.result.target_bytes);
    std::uint64_t n = 0;
    h.scalar(n);
    sim.result.iterations.clear();
    if (ckpt::checkCount(h, n, 8)) {
        for (std::uint64_t i = 0; i < n; ++i) {
            IterStats it;
#define RNR_CKPT_ITER_FIELD(type, name) h.scalar(it.name);
            RNR_ITER_STAT_FIELDS(RNR_CKPT_ITER_FIELD)
#undef RNR_CKPT_ITER_FIELD
            sim.result.iterations.push_back(it);
        }
    }
    if (!h.ok())
        throw ckpt::CorruptSnapshot(h.result());

    // The restored stats make a fresh capture equal the
    // checkpoint-time one, so iteration deltas continue seamlessly.
    sim.before = SystemCounters::capture(sim.sys);
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const ExperimentConfig &cfg)
{
    WorkloadOptions opts;
    opts.cores = cfg.cores;
    opts.use_rnr = true; // control records are harmless to baselines
    opts.window_size = cfg.window_size;

    // Inputs come through the checkpoint-fork layer: the first config
    // of a workload key generates (the sweep's shared warm-up), every
    // other one forks the published input snapshot (RNR_CKPT=0 falls
    // back to generating every time).  Forked inputs are bit-identical
    // to generated ones, so results do not depend on the store.
    if (cfg.app == "pagerank")
        return std::make_unique<PageRankWorkload>(
            ckpt::forkGraphInput(cfg), opts);
    if (cfg.app == "hyperanf")
        return std::make_unique<HyperAnfWorkload>(
            ckpt::forkGraphInput(cfg), opts);
    if (cfg.app == "spcg")
        return std::make_unique<SpcgWorkload>(
            ckpt::forkMatrixInput(cfg), opts);
    if (cfg.app == "labelprop")
        return std::make_unique<LabelPropWorkload>(
            ckpt::forkGraphInput(cfg), opts);
    if (cfg.app == "jacobi")
        return std::make_unique<JacobiWorkload>(
            ckpt::forkMatrixInput(cfg), opts);
    if (cfg.app == "tracefile")
        return std::make_unique<TraceFileWorkload>(cfg.input, opts);
    throw std::invalid_argument("unknown app: " + cfg.app);
}

ExperimentResult
runExperimentInstrumented(const ExperimentConfig &cfg, const Probes &probes)
{
    // The tracefile app already replays from disk; storing it again
    // would only duplicate the file.
    ExperimentResult r =
        (TraceStore::enabled() && cfg.app != "tracefile")
            ? runWithTraceStore(cfg, probes)
            : runMaterialized(cfg, probes, nullptr);
    if (probes.tm)
        r.telemetry =
            std::make_shared<TelemetryBlob>(probes.tm->harvest());
    if (probes.at) {
        auto blob = std::make_shared<AttribBlob>(probes.at->harvest());
        publishAttribMetrics(*blob);
        r.attrib = std::move(blob);
    }
    return r;
}

ExperimentResult
runExperimentUncached(const ExperimentConfig &cfg)
{
    const bool want_trace = cfg.trace.enabled || traceEnvEnabled();
    const bool want_samples =
        cfg.telemetry.enabled || telemetryEnvSampleCycles() > 0;
    const bool want_attrib = cfg.attrib.enabled || attribEnvEnabled();

    std::unique_ptr<TelemetrySampler> tm;
    if (want_samples)
        tm = std::make_unique<TelemetrySampler>(
            telemetrySampleCycles(cfg.telemetry.sample_cycles));
    std::unique_ptr<AttribCollector> at;
    if (want_attrib)
        at = std::make_unique<AttribCollector>(
            cfg.attrib.site_top_k != 0
                ? cfg.attrib.site_top_k
                : AttribCollector::kDefaultSiteTopK,
            cfg.attrib.region_top_k != 0
                ? cfg.attrib.region_top_k
                : AttribCollector::kDefaultRegionTopK);
    if (!want_trace)
        return runExperimentInstrumented(cfg,
                                         {.tm = tm.get(), .at = at.get()});

    TraceCollector tr(cfg.cores, cfg.trace.ring_capacity);
    ExperimentResult result = runExperimentInstrumented(
        cfg, {.tr = &tr, .tm = tm.get(), .at = at.get()});

    // Sinks.  In a parallel sweep every traced cell without its own
    // cfg.trace.json_out publishes to the same RNR_TRACE_OUT path.  Each
    // publish goes through its own temp file, so every write succeeds
    // and the file always holds one cell's complete trace — the cell
    // that finished last.  Set json_out per cell to keep them all.
    const std::string out = !cfg.trace.json_out.empty()
                                ? cfg.trace.json_out
                                : traceEnvOutPath();
    if (!out.empty() && !writeChromeTrace(out, tr))
        obs::LogLine(obs::LogLevel::Error, "trace")
            .msg("failed to write trace")
            .kv("path", out);
    if (traceEnvReportEnabled()) {
        const std::string report =
            formatReplayDiagnostics(buildReplayDiagnostics(tr));
        std::fprintf(stderr, "[%s] replay windows:\n%s", cfg.key().c_str(),
                     report.c_str());
    }
    return result;
}

ExperimentResult
runExperiment(const ExperimentConfig &cfg, bool *was_cached)
{
    ResultCache &cache = ResultCache::instance();
    const std::string key = cfg.key();

    // Single-flight: the first caller of a key simulates; concurrent
    // callers of the same key sleep until the result lands in the cache
    // (or the simulating thread fails, in which case one waiter takes
    // over and retries).
    {
        std::unique_lock<std::mutex> lock(g_inflight_mu);
        for (;;) {
            ExperimentResult hit;
            if (cache.lookup(cfg, hit)) {
                if (was_cached)
                    *was_cached = true;
                return hit;
            }
            if (g_inflight.insert(key).second)
                break; // we own the simulation of this key
            g_inflight_cv.wait(lock);
        }
    }

    ExperimentResult r;
    try {
        r = runExperimentUncached(cfg);
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(g_inflight_mu);
            g_inflight.erase(key);
        }
        g_inflight_cv.notify_all();
        throw;
    }
    cache.store(key, r);
    {
        std::lock_guard<std::mutex> lock(g_inflight_mu);
        g_inflight.erase(key);
    }
    g_inflight_cv.notify_all();
    if (was_cached)
        *was_cached = false;
    return r;
}

std::uint64_t
experimentsSimulated()
{
    return g_simulated.load();
}

ExperimentResult
runExperimentCheckpointed(const ExperimentConfig &cfg, unsigned window,
                          std::vector<std::uint8_t> &snapshot_out)
{
    if (window == 0 || window >= cfg.iterations)
        throw std::invalid_argument(
            "checkpoint window must be in [1, iterations)");
    g_simulated.fetch_add(1);
    Sim sim(cfg, {});
    sim.runNative(cfg, 0, window);
    snapshot_out = snapshotSim(cfg, sim, window);
    sim.runNative(cfg, window, cfg.iterations);
    return sim.finish(cfg);
}

ExperimentResult
runExperimentFromSnapshot(const ExperimentConfig &cfg,
                          const std::vector<std::uint8_t> &snapshot)
{
    ckpt::SnapshotReader reader;
    if (ckpt::CkptIoResult r = reader.parse(snapshot); !r.ok())
        throw ckpt::CorruptSnapshot(r);
    if (reader.header().full_key != cfg.key())
        throw ckpt::CorruptSnapshot(ckpt::CkptIoResult::fail(
            ckpt::CkptIoStatus::KeyMismatch,
            "snapshot belongs to \"" + reader.header().full_key + "\""));
    const unsigned window =
        static_cast<unsigned>(reader.header().window);
    if (window == 0 || window >= cfg.iterations)
        throw ckpt::CorruptSnapshot(ckpt::CkptIoResult::fail(
            ckpt::CkptIoStatus::BadSection,
            "window " + std::to_string(window) + " outside [1, " +
                std::to_string(cfg.iterations) + ")"));

    g_simulated.fetch_add(1);
    Sim sim(cfg, {});
    restoreSim(cfg, sim, reader);
    ckpt::CheckpointStore::instance().noteRestore();
    sim.runNative(cfg, window, cfg.iterations);
    return sim.finish(cfg);
}

ExperimentResult
runExperimentResumable(const ExperimentConfig &cfg, unsigned window)
{
    ckpt::CheckpointStore &store = ckpt::CheckpointStore::instance();
    std::vector<std::uint8_t> blob;
    if (!ckpt::CheckpointStore::enabled())
        return runExperimentCheckpointed(cfg, window, blob);

    // One span covers the whole resumable operation, so the store's
    // own records (corrupt-snapshot drops, publish failures) correlate
    // with the quarantine warnings below in a merged farm log.
    obs::SpanScope span;
    const std::string key = cfg.key();
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (store.acquire(key, window, blob) ==
            ckpt::CheckpointStore::Acquire::Hit) {
            try {
                return runExperimentFromSnapshot(cfg, blob);
            } catch (const ckpt::CorruptSnapshot &e) {
                obs::LogLine(obs::LogLevel::Warn, "ckpt")
                    .msg("restore failed; quarantining and re-running")
                    .kv("key", key)
                    .kv("why", e.what());
                store.invalidate(key, window);
                continue;
            }
        }
        // Owner: simulate from the start, snapshotting at the window.
        ExperimentResult r;
        try {
            r = runExperimentCheckpointed(cfg, window, blob);
        } catch (...) {
            store.abandon(key, window);
            throw;
        }
        store.publish(key, window, blob);
        return r;
    }
    // Two corrupt restores in a row: run straight through without
    // touching the store again.
    return runExperimentCheckpointed(cfg, window, blob);
}

ExperimentResult
runBaseline(const ExperimentConfig &cfg)
{
    ExperimentConfig base = cfg;
    base.prefetcher = PrefetcherKind::None;
    base.control = ReplayControlMode::WindowPace;
    base.window_size = 0;
    base.ideal_llc = false;
    return runExperiment(base);
}

} // namespace rnr
