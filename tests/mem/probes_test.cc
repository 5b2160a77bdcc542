/**
 * @file
 * The probe attach rule (sim/probes.h) on a MemorySystem:
 *
 *  - a prefetcher installed after the probes were attached inherits all
 *    three collectors (setPrefetcher's inheritance path, which the
 *    runner never takes because it installs before it attaches);
 *  - attach({}) detaches everything: further accesses add no events,
 *    no latency samples and no attribution rows.
 */
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "sim/trace_event.h"
#include "test_util.h"

namespace rnr {
namespace {

constexpr Addr kSeqBase = 0x70000000;
constexpr Addr kDivBase = 0x71000000;
constexpr Addr kTarget = 0x100000;

/** Drives an RnR-bearing prefetcher on core 0 through record and
 *  replay passes. */
struct Driver {
    MemorySystem &ms;
    Tick t = 0;

    void
    ctl(RnrOp op, Addr p0 = 0, std::uint64_t p1 = 0)
    {
        ms.control(0, TraceRecord::control(op, p0, p1), t);
    }

    void
    read(Addr a)
    {
        ms.demandAccess(0, a, false, 1, t);
        t += 800;
    }

    void
    dropPrivateCaches()
    {
        ms.l2(0).reset();
        ms.l1d(0).reset();
    }

    /** Cold record pass, then a replay pass that finds every replayed
     *  prefetch landed (Fig 11 on-time). */
    void
    recordThenReplay(const std::vector<unsigned> &offsets)
    {
        dropPrivateCaches();
        ctl(RnrOp::Start);
        for (unsigned o : offsets)
            read(kTarget + Addr(o) * kBlockSize);
        dropPrivateCaches();
        ctl(RnrOp::Replay);
        t += 100000; // every replayed prefetch has landed
        for (unsigned o : offsets)
            read(kTarget + Addr(o) * kBlockSize);
    }
};

/** Everything the three collectors hold, for before/after compares. */
struct Observed {
    std::vector<std::uint64_t> track_events;
    std::size_t window_rows = 0;
    std::size_t series = 0;
    std::uint64_t samples = 0;
    std::uint64_t miss_latencies = 0;
    std::uint64_t pf_latencies = 0;
    AttribBlob attrib;

    static Observed
    of(TraceCollector &tr, TelemetrySampler &tm, const AttribCollector &at)
    {
        Observed o;
        for (std::uint16_t k = 0; k < tr.trackCount(); ++k)
            o.track_events.push_back(tr.ring(k).total());
        o.window_rows = tr.windowTable().size();
        o.series = tm.seriesCount();
        o.samples = tm.samplesTaken();
        o.miss_latencies = tm.histogram("l2.demand_miss_latency").count();
        o.pf_latencies = tm.histogram("l2.prefetch_fill_latency").count();
        o.attrib = at.harvest();
        return o;
    }
};

TEST(ProbesAttach, LateInstallInheritsAndEmptyAttachDetaches)
{
    MemorySystem ms(test::tinyMachine());
    TraceCollector tr(1, 1 << 14);
    TelemetrySampler tm(64);
    AttribCollector at;
    ms.attach({.tr = &tr, .tm = &tm, .at = &at});

    // Installed after the attach: must inherit all three collectors.
    RnrPrefetcher::Options opts;
    opts.window_size = 4;
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::RnrCombined, opts);
    ms.setPrefetcher(0, pf.get());
    EXPECT_NE(tm.findSeries("rnr.core0.n_pace"), nullptr);
    EXPECT_NE(tm.findSeries("rnr.core0.seq_buffer_bytes"), nullptr);
    EXPECT_NE(tm.findSeries("rnr.core0.div_buffer_bytes"), nullptr);

    Driver d{ms};
    d.ctl(RnrOp::Init, kSeqBase, kDivBase);
    d.ctl(RnrOp::AddrBaseSet, kTarget, 1 << 16);
    d.ctl(RnrOp::AddrEnable, kTarget);
    const std::vector<unsigned> offsets = {1, 2, 3, 4, 5, 6, 7, 8};
    d.recordThenReplay(offsets);
    tm.sample(d.t);

    // The RnR child emitted its lifecycle onto the shared rnr track...
    EXPECT_GT(tr.ring(tr.rnrTrack()).total(), 0u);
    // ...and reported Fig 11 classes to the attribution collector.
    const Observed attached = Observed::of(tr, tm, at);
    const AttribBlob &a = attached.attrib;
    EXPECT_GT(a.rnr_ontime, 0u);
    EXPECT_FALSE(a.windows.empty());
    EXPECT_GT(a.totals.issued, 0u);
    EXPECT_GT(attached.miss_latencies, 0u);
    EXPECT_GT(attached.pf_latencies, 0u);

    // Detach everything, then run the same record/replay round again.
    ms.attach({});
    d.recordThenReplay(offsets);
    for (unsigned i = 0; i < 16; ++i)
        ms.prefetchIntoL2(0, 0x900000 + Addr(i) * kBlockSize, d.t++, 7);

    const Observed detached = Observed::of(tr, tm, at);
    EXPECT_EQ(detached.track_events, attached.track_events);
    EXPECT_EQ(detached.window_rows, attached.window_rows);
    EXPECT_EQ(detached.series, attached.series);
    EXPECT_EQ(detached.samples, attached.samples);
    EXPECT_EQ(detached.miss_latencies, attached.miss_latencies);
    EXPECT_EQ(detached.pf_latencies, attached.pf_latencies);
    const AttribBlob &b = detached.attrib;
    EXPECT_EQ(b.totals.issued, a.totals.issued);
    EXPECT_EQ(b.totals.useful, a.totals.useful);
    EXPECT_EQ(b.totals.late_merged, a.totals.late_merged);
    EXPECT_EQ(b.totals.evicted_unused, a.totals.evicted_unused);
    EXPECT_EQ(b.totals.pollution, a.totals.pollution);
    EXPECT_EQ(b.rnr_ontime, a.rnr_ontime);
    EXPECT_EQ(b.rnr_early, a.rnr_early);
    EXPECT_EQ(b.rnr_late, a.rnr_late);
    EXPECT_EQ(b.rnr_out_of_window, a.rnr_out_of_window);
    EXPECT_EQ(b.sites.size(), a.sites.size());
    EXPECT_EQ(b.regions.size(), a.regions.size());
    EXPECT_EQ(b.windows.size(), a.windows.size());
    EXPECT_EQ(b.pollution_filter_inserts, a.pollution_filter_inserts);

    // The detached round still simulated, prefetched and classified.
    EXPECT_GT(ms.l2(0).stats().get("prefetches_issued"), a.totals.issued);
    EXPECT_GT(asRnr(pf.get())->stats().get("pf_ontime"), a.rnr_ontime);
}

} // namespace
} // namespace rnr
