/**
 * @file
 * System-level golden pins: four scenarios whose IterationResult and
 * SystemCounters digest (tests/golden.h) are committed constants.  They
 * cover the cases where a change to the inner loop or to System::drive()
 * would show first: multi-core interleaving through the shared LLC/DRAM
 * with control records mid-run, barriers between iterations, one core
 * draining mid-block while the other runs on, and RnR record/replay
 * with window closes and pace recomputes straddling 4096-record trace
 * blocks.  drive() hands each pick exactly 8 records; these pins hold
 * that interleave in place.
 *
 * Every run prints each scenario's actual values; a change that moves
 * the model on purpose copies them here and says why (docs/PERF.md
 * section 4).
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/system.h"
#include "golden.h"
#include "harness/system_counters.h"
#include "prefetch/factory.h"
#include "test_util.h"
#include "tracestore/trace_codec.h"
#include "workloads/graph_gen.h"
#include "workloads/pagerank.h"

namespace rnr {
namespace {

struct Golden {
    Tick start;
    Tick end;
    std::uint64_t instructions;
    std::uint64_t counters;
};

/** Compares the last iteration and the system's counters with @p g. */
void
expectGolden(const char *scenario, const IterationResult &r, System &sys,
             const Golden &g)
{
    const std::uint64_t digest =
        test::counterDigest(SystemCounters::capture(sys));
    std::printf("golden %s {%llu, %llu, %llu, %s}\n", scenario,
                static_cast<unsigned long long>(r.start),
                static_cast<unsigned long long>(r.end),
                static_cast<unsigned long long>(r.instructions),
                test::hexDigest(digest).c_str());
    EXPECT_EQ(r.start, g.start) << scenario;
    EXPECT_EQ(r.end, g.end) << scenario;
    EXPECT_EQ(r.instructions, g.instructions) << scenario;
    EXPECT_EQ(test::hexDigest(digest), test::hexDigest(g.counters))
        << scenario;
}

/**
 * Feeds a buffer in runs of at most @p run_records records, the way a
 * trace-store reader hands out decoded blocks.  An odd run length puts
 * run ends mid-quantum, which drive() must not notice.
 */
class ChunkedSource final : public TraceSource
{
  public:
    ChunkedSource(const TraceBuffer &buf, std::size_t run_records)
        : buf_(buf), run_records_(run_records)
    {
    }

    const TraceRecord *
    takeBlock(std::size_t &n) override
    {
        n = std::min(run_records_, buf_.size() - pos_);
        const TraceRecord *run = n ? buf_.records().data() + pos_ : nullptr;
        pos_ += n;
        return run;
    }

  private:
    const TraceBuffer &buf_;
    std::size_t run_records_;
    std::size_t pos_ = 0;
};

/** Runs one iteration of @p bufs through ChunkedSource feeds. */
IterationResult
runChunked(System &sys, const std::vector<TraceBuffer> &bufs)
{
    ChunkedSource s0(bufs[0], kDefaultBlockRecords - 1);
    ChunkedSource s1(bufs[1], kDefaultBlockRecords - 1);
    return sys.runStreaming({&s0, &s1});
}

MachineConfig
twoCores()
{
    MachineConfig m = test::tinyMachine();
    m.cores = 2;
    return m;
}

/** Two cores contending in the shared LLC/DRAM address range, with
 *  loads, stores, gaps and control records mixed in. */
std::vector<TraceBuffer>
contendedTraces(std::size_t records_per_core)
{
    std::vector<TraceBuffer> bufs(2);
    bufs[0].push(TraceRecord::control(RnrOp::Init));
    bufs[0].push(TraceRecord::control(RnrOp::AddrBaseSet, 0x100000, 1 << 20));
    for (std::size_t i = 0; i < records_per_core; ++i) {
        // Both cores walk overlapping sets so LLC/DRAM contention makes
        // the drive() interleave observable in the counters.
        const Addr a0 = 0x100000 + Addr(i * 37 % 8192) * 64;
        const Addr a1 = 0x100000 + Addr(i * 53 % 8192) * 64;
        const std::uint16_t gap = static_cast<std::uint16_t>(i % 5);
        if (i % 7 == 0)
            bufs[0].push(TraceRecord::store(a0, 1 + i % 11, gap));
        else
            bufs[0].push(TraceRecord::load(a0, 1 + i % 11, gap));
        if (i % 9 == 0)
            bufs[1].push(TraceRecord::store(a1, 100 + i % 13, gap));
        else
            bufs[1].push(TraceRecord::load(a1, 100 + i % 13, gap));
        if (i == records_per_core / 2) {
            bufs[0].push(TraceRecord::control(RnrOp::Pause));
            bufs[1].push(TraceRecord::control(RnrOp::Resume));
        }
    }
    bufs[0].push(TraceRecord::control(RnrOp::EndState));
    return bufs;
}

TEST(SystemGoldenTest, TwoCoreContention)
{
    System sys(twoCores());
    auto pfs = test::attachPrefetchers(sys, PrefetcherKind::Stream);

    // 6000 records per core, fed in runs of 4095: each core crosses a
    // run boundary mid-quantum.
    const std::vector<TraceBuffer> bufs = contendedTraces(6000);
    const IterationResult r = runChunked(sys, bufs);
    expectGolden("two-core-contention", r, sys,
                 {0, 72472, 36010, 0x2c25d1687e65c4e7});
}

TEST(SystemGoldenTest, MultiIterationBarrier)
{
    System sys(twoCores());
    const std::vector<TraceBuffer> bufs = contendedTraces(1500);
    IterationResult r;
    for (int iter = 0; iter < 3; ++iter)
        r = sys.run({&bufs[0], &bufs[1]});
    expectGolden("multi-iteration-barrier", r, sys,
                 {35571, 53416, 9010, 0xbbcc859e69e27b20});
}

TEST(SystemGoldenTest, UnevenCoreLengths)
{
    // One core's trace is a tiny fraction of the other's, so the
    // pick-min-time scheduler runs long stretches single-core after the
    // short core drains, and the drain happens mid-quantum.
    System sys(twoCores());
    std::vector<TraceBuffer> bufs(2);
    for (int i = 0; i < 5000; ++i)
        bufs[0].push(TraceRecord::load(0x10000 + Addr(i % 4096) * 64, 1,
                                       static_cast<std::uint16_t>(i % 3)));
    for (int i = 0; i < 37; ++i)
        bufs[1].push(TraceRecord::load(0x90000 + Addr(i) * 64, 2, 1));

    const IterationResult r = sys.run({&bufs[0], &bufs[1]});
    expectGolden("uneven-core-lengths", r, sys,
                 {0, 40700, 10073, 0xaa753976aaf2bafb});
}

/**
 * RnR record/replay: iteration 0 records misses, the replay iterations
 * issue paced prefetches whose windows open and close anywhere inside a
 * trace block, and the pace recompute spans block boundaries.
 */
TEST(SystemGoldenTest, RnrRecordReplay)
{
    System sys(twoCores());

    WorkloadOptions opts;
    opts.cores = 2;
    opts.use_rnr = true;
    opts.window_size = 512; // small windows: frequent closes mid-block
    PageRankWorkload wl(makeUrandGraph(3000, 8), opts);

    auto pfs = test::attachPrefetchers(sys, PrefetcherKind::Rnr, {}, &wl);
    for (unsigned c = 0; c < 2; ++c)
        pfs[c]->configureFor(wl, c);

    const unsigned iterations = 3;
    std::vector<TraceBuffer> bufs(2);
    std::uint64_t total_records = 0;
    IterationResult r;
    for (unsigned iter = 0; iter < iterations; ++iter) {
        for (auto &b : bufs)
            b.clear();
        wl.emitIteration(iter, iter + 1 == iterations, bufs);
        for (const auto &b : bufs)
            total_records += b.size();
        r = runChunked(sys, bufs);
    }
    expectGolden("rnr-record-replay", r, sys,
                 {123661, 186295, 299688, 0x0108346d67e45f1e});

    // The scenario must actually exercise the straddling cases: more
    // records than two trace blocks, and real replay prefetching.
    EXPECT_GT(total_records, 2u * kDefaultBlockRecords);
    const SystemCounters c = SystemCounters::capture(sys);
    EXPECT_GT(c.rnr_recorded, 0u);
    EXPECT_GT(c.pf_issued, 0u);
}

} // namespace
} // namespace rnr
