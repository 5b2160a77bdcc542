/**
 * @file
 * Hot-path microbenchmark: simulated mem-ops/s through
 * MemorySystem::demandAccess.
 *
 * Replays a recorded PageRank/urand trace slice (the paper's
 * worst-locality input) straight into the memory system, bypassing the
 * core model, so the measured rate isolates the cache/MSHR/DRAM/stats
 * bookkeeping that every simulated access pays.  This is the repo's
 * committed perf trajectory point: CI runs it in Release mode and
 * uploads BENCH_hotpath.json, and the before/after numbers of each
 * accepted optimisation live in the checked-in copy of that file.
 *
 * Variants:
 *  - none:    no prefetcher — the floor every other config builds on.
 *  - stream:  stream prefetcher attached — adds the Prefetcher::onAccess
 *             and issuePrefetch counter paths to the measurement.
 *  - misb, bingo: the two paper baselines whose metadata tables
 *             (sim/flat_table.h) dominate the zoo sweep's heavy cells —
 *             the prefetch-layer cost on top of none.
 *  - sampled: like none but with a live TelemetrySampler attached and
 *             offered the clock per op — the *enabled* sampling cost
 *             (the disabled cost is what none measures, since the
 *             telemetry hooks are always compiled in; the A/B lives in
 *             BENCH_telemetry.json).
 *
 * BM_DemandAccessObsGated is the observability-off A/B partner of
 * none: the identical loop with a disabled metrics-registry gate per
 * op (the nullptr a call site holds under RNR_METRICS=0) and a
 * below-threshold logEnabled() check per sweep — the exact shapes the
 * instrumented sites in src/harness and src/farm have, at the
 * granularities they really run at.  Its rate must stay within noise
 * of none (docs/HARNESS.md §16); CI asserts the parity and the
 * compare gate pins both.  BM_DemandAccessAttribGated is the same
 * contract for the attribution layer (docs/HARNESS.md §18): the loop
 * with an empty probe attach (`attach({})`) and a per-op null-collector
 * gate, the shape every cache/memory-system hook has when RNR_ATTRIB is
 * off.
 *
 * BM_Kernel measures the full stack instead — trace feed, CoreModel
 * inner loop, memory system — so its rate against BM_DemandAccess/none
 * is what the core-side loop costs; CI gates it with the rest.
 *
 * The checkpoint subsystem (src/ckpt) adds three rows:
 *  - BM_CheckpointSaveRestore: the full rnr-ckpt-v1 roundtrip on a
 *    warmed one-core System — serialize every cache/TLB/DRAM/core and
 *    the prefetcher, checksum, parse, load it all back.  Items are
 *    snapshot *bytes*, so the rate is codec throughput and bounds how
 *    often window-boundary snapshots are affordable.
 *  - BM_WarmupGenerate vs BM_WarmupFork: the sweep warm-up A/B —
 *    native urand graph synthesis against decoding the published
 *    input snapshot the checkpoint-fork sweep shares.  Items are
 *    inputs, so fork-rate / generate-rate is the per-cell warm-up
 *    speedup every forked sweep config enjoys (docs/PERF.md).
 *
 * Run `micro_hotpath compare <baseline.json> <current.json>` to use the
 * binary as a regression gate instead (bench_util.h, benchCompareMain);
 * any other arguments go to google-benchmark as usual.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "ckpt/checkpoint.h"
#include "cpu/system.h"
#include "mem/memory_system.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "prefetch/factory.h"
#include "sim/attrib.h"
#include "sim/config.h"
#include "sim/timeseries.h"
#include "workloads/graph_gen.h"
#include "workloads/pagerank.h"

namespace rnr {
namespace {

/** Records one PageRank/urand iteration once; shared by all variants. */
const std::vector<TraceRecord> &
hotTrace()
{
    static const std::vector<TraceRecord> trace = [] {
        WorkloadOptions opts;
        opts.cores = 1;
        opts.use_rnr = false; // pure demand trace: no control records
        PageRankWorkload wl(makeGraphInput("urand").graph, opts);
        std::vector<TraceBuffer> bufs(1);
        wl.emitIteration(0, /*is_last=*/true, bufs);
        const std::vector<TraceRecord> &recs = bufs[0].records();
        const std::size_t n =
            std::min<std::size_t>(recs.size(), std::size_t{1} << 21);
        return std::vector<TraceRecord>(recs.begin(), recs.begin() + n);
    }();
    return trace;
}

void
BM_DemandAccess(benchmark::State &state, PrefetcherKind kind)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf = createPrefetcher(kind);
    ms.setPrefetcher(0, pf.get());

    // Issue ticks advance like a 4-wide core would: one cycle per memory
    // op plus the record's instruction gap share.  Time never rewinds
    // across benchmark iterations, matching the simulator's contract.
    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (const TraceRecord &rec : trace) {
            now += 1 + rec.gap / 4;
            const DemandResult res = ms.demandAccess(
                0, rec.addr, rec.kind == RecordKind::Store, rec.pc, now);
            benchmark::DoNotOptimize(res.done);
        }
        ops += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void
BM_DemandAccessSampled(benchmark::State &state)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::None);
    ms.setPrefetcher(0, pf.get());

    // The core model normally drives sampling from stepRun(); here the
    // bench plays that role, offering the clock once per op like a
    // one-op cycle batch would.
    TelemetrySampler tm(kDefaultSampleCycles);
    ms.attach({.tm = &tm});

    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (const TraceRecord &rec : trace) {
            now += 1 + rec.gap / 4;
            tm.maybeSample(now);
            const DemandResult res = ms.demandAccess(
                0, rec.addr, rec.kind == RecordKind::Store, rec.pc, now);
            benchmark::DoNotOptimize(res.done);
        }
        ops += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void
BM_DemandAccessObsGated(benchmark::State &state)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::None);
    ms.setPrefetcher(0, pf.get());

    // The disabled-observability call-site shape: the registry handed
    // this site nullptr (what RNR_METRICS=0 returns) and the default
    // info threshold rejects Debug, so both gates must cost one
    // predictable branch apiece.  DoNotOptimize keeps the compiler
    // from proving the pointer null and deleting the branch outright —
    // real call sites hold it in a static the optimizer can't fold.
    obs::Counter *ops_counter = nullptr;
    benchmark::DoNotOptimize(ops_counter);
    (void)obs::logThreshold(); // force env init so Debug is gated off

    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        // Per-sweep log gate: no instrumented site logs per memory op —
        // log records mark cell/batch events — so the disabled check
        // belongs at the sweep granularity it really runs at.
        if (obs::logEnabled(obs::LogLevel::Debug))
            obs::LogLine(obs::LogLevel::Debug, "bench")
                .msg("sweep start")
                .kv("ops", static_cast<std::uint64_t>(trace.size()));
        for (const TraceRecord &rec : trace) {
            if (ops_counter)
                ops_counter->add();
            now += 1 + rec.gap / 4;
            const DemandResult res = ms.demandAccess(
                0, rec.addr, rec.kind == RecordKind::Store, rec.pc, now);
            benchmark::DoNotOptimize(res.done);
        }
        ops += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void
BM_DemandAccessAttribGated(benchmark::State &state)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::None);
    ms.setPrefetcher(0, pf.get());

    // The disabled-attribution call-site shape (sim/attrib.h rule 2):
    // every cache/memory-system hook holds an `AttribCollector *` that
    // attach() left null, so the per-access cost must be one
    // predictable branch per hook.  attach({}) walks the exact detach
    // path the runner takes for an unobserved run, and the extra
    // null-gated call here mirrors the densest hook (the L2 demand-miss
    // probe) at the per-op granularity it really fires at.
    // DoNotOptimize keeps the compiler from folding the branch away.
    ms.attach({});
    AttribCollector *at = nullptr;
    benchmark::DoNotOptimize(at);

    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (const TraceRecord &rec : trace) {
            if (at)
                at->onDemandMiss(0, rec.addr >> kBlockBits);
            now += 1 + rec.gap / 4;
            const DemandResult res = ms.demandAccess(
                0, rec.addr, rec.kind == RecordKind::Store, rec.pc, now);
            benchmark::DoNotOptimize(res.done);
        }
        ops += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

/**
 * Whole stack: a one-core System consumes the hot trace through
 * CoreModel.  Items are trace records (mem ops), so the rate is
 * directly comparable to BM_DemandAccess — the delta between them is
 * what the core-side loop costs.
 */
void
BM_Kernel(benchmark::State &state)
{
    static const TraceBuffer &buf = *[] {
        static TraceBuffer b;
        for (const TraceRecord &rec : hotTrace())
            b.push(rec);
        return &b;
    }();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    System sys(mcfg);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::None);
    sys.mem().setPrefetcher(0, pf.get());

    std::uint64_t ops = 0;
    for (auto _ : state) {
        const IterationResult res = sys.run({&buf});
        benchmark::DoNotOptimize(res.end);
        ops += buf.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

/**
 * Full-state snapshot roundtrip (src/ckpt): serialize a warmed System
 * and its prefetcher into an rnr-ckpt-v1 blob, checksum it, parse it
 * back and load every field.  Items are snapshot bytes — the rate is
 * the codec's save+restore throughput, which bounds how often the
 * resumable runner can afford window-boundary snapshots.
 */
void
BM_CheckpointSaveRestore(benchmark::State &state)
{
    static const TraceBuffer &buf = *[] {
        static TraceBuffer b;
        for (const TraceRecord &rec : hotTrace())
            b.push(rec);
        return &b;
    }();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    System sys(mcfg);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::Stream);
    sys.mem().setPrefetcher(0, pf.get());
    // One warm pass so the snapshot carries populated caches, TLBs,
    // DRAM bookkeeping and live prefetcher state — what a real
    // window-boundary capture serializes (the workload itself is
    // fast-forwarded natively on restore, never serialized).
    (void)sys.run({&buf});

    std::uint64_t bytes = 0;
    for (auto _ : state) {
        ckpt::SnapshotWriter w(
            ckpt::SnapshotHeader{"bench", "bench-full", 1});
        sys.visitState(w.section(ckpt::SectionId::System));
        pf->saveState(w.section(ckpt::SectionId::Prefetchers));
        std::vector<std::uint8_t> blob = w.finish();

        ckpt::SnapshotReader reader;
        if (!reader.parse(blob).ok()) {
            state.SkipWithError("snapshot failed to parse");
            break;
        }
        ckpt::Deser sys_d = reader.section(ckpt::SectionId::System);
        sys.visitState(sys_d);
        ckpt::Deser pf_d = reader.section(ckpt::SectionId::Prefetchers);
        pf->loadState(pf_d);
        if (!sys_d.ok() || !pf_d.ok()) {
            state.SkipWithError("snapshot failed to load");
            break;
        }
        benchmark::DoNotOptimize(blob.data());
        bytes += blob.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(bytes));
}

/** The sweep warm-up's native side: synthesize the urand graph the
 *  way the first config of a workload key must.  Items are inputs. */
void
BM_WarmupGenerate(benchmark::State &state)
{
    std::uint64_t inputs = 0;
    for (auto _ : state) {
        GraphInput in = makeGraphInput("urand");
        benchmark::DoNotOptimize(in.graph.num_vertices);
        ++inputs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(inputs));
}

/** The warm-up's forked side: decode the published input snapshot
 *  instead of regenerating — what every other config of the workload
 *  key pays under RNR_CKPT=1.  Same items as BM_WarmupGenerate, so
 *  the rate ratio is the per-cell warm-up speedup. */
void
BM_WarmupFork(benchmark::State &state)
{
    // The exact blob the warm-up publishes: tag+name prefix, then the
    // CSR arrays (mirrors src/ckpt/input_fork.cc's encodeInput).
    static const std::vector<std::uint8_t> &blob = *[] {
        static std::vector<std::uint8_t> b;
        Graph g = makeGraphInput("urand").graph;
        ckpt::SnapshotWriter w(ckpt::SnapshotHeader{"bench", "", 0});
        ckpt::Ser &s = w.section(ckpt::SectionId::Input);
        std::uint64_t tag = 1;
        s.scalar(tag);
        std::string name = "urand";
        s.str(name);
        g.visitState(s);
        b = w.finish();
        return &b;
    }();

    std::uint64_t inputs = 0;
    for (auto _ : state) {
        ckpt::SnapshotReader reader;
        if (!reader.parse(blob).ok()) {
            state.SkipWithError("input snapshot failed to parse");
            break;
        }
        ckpt::Deser d = reader.section(ckpt::SectionId::Input);
        std::uint64_t tag = 0;
        d.scalar(tag);
        std::string name;
        d.str(name);
        Graph g;
        g.visitState(d);
        if (!d.ok()) {
            state.SkipWithError("input snapshot failed to decode");
            break;
        }
        benchmark::DoNotOptimize(g.num_vertices);
        ++inputs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(inputs));
}

BENCHMARK_CAPTURE(BM_DemandAccess, none, PrefetcherKind::None)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DemandAccess, stream, PrefetcherKind::Stream)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DemandAccess, misb, PrefetcherKind::Misb)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DemandAccess, bingo, PrefetcherKind::Bingo)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DemandAccessSampled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DemandAccessObsGated)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DemandAccessAttribGated)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Kernel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckpointSaveRestore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WarmupGenerate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WarmupFork)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace rnr

// Hand-rolled main so the same binary doubles as the regression gate:
// `micro_hotpath compare <base.json> <cur.json> [--max-regress <pct>]`.
int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "compare") == 0)
        return rnr::bench::benchCompareMain(argc - 1, argv + 1);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
