#include <gtest/gtest.h>

#include "cpu/core.h"
#include "test_util.h"

namespace rnr {
namespace {

struct CoreFixture : ::testing::Test {
    CoreFixture() : ms(test::tinyMachine()), core(0, cfg(), &ms) {}

    static CoreConfig
    cfg()
    {
        CoreConfig c;
        c.issue_width = 4;
        c.rob_size = 16;
        c.lsq_size = 4;
        return c;
    }

    MemorySystem ms;
    CoreModel core;
    TraceBuffer trace;
};

TEST_F(CoreFixture, EmptyTraceIsDone)
{
    core.setTrace(&trace);
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.time(), 0u);
}

TEST_F(CoreFixture, GapAdvancesIssueClockAtIssueWidth)
{
    TraceRecord r = TraceRecord::load(0x1000, 1, /*gap=*/39);
    trace.push(r);
    core.setTrace(&trace);
    core.stepRun(1);
    // 39 gap instructions + 1 load = 40 instructions at 4-wide = 10 cyc.
    EXPECT_EQ(core.time(), 10u);
    EXPECT_EQ(core.instructionsRetired(), 40u);
}

TEST_F(CoreFixture, LoadsOverlapInsideTheWindow)
{
    // Two independent loads to different blocks: the second issues
    // before the first completes.
    trace.push(TraceRecord::load(0x10000, 1, 0));
    trace.push(TraceRecord::load(0x20000, 2, 0));
    core.setTrace(&trace);
    core.stepRun(1);
    const Tick t_after_first = core.time();
    core.stepRun(1);
    EXPECT_LE(core.time(), t_after_first + 1);
    // Both are in flight; the finish time covers the slower one.
    EXPECT_GT(core.finishTime(), core.time());
}

TEST_F(CoreFixture, LsqFullStallsIssue)
{
    // More loads than LSQ entries, all missing to DRAM.
    for (int i = 0; i < 8; ++i)
        trace.push(TraceRecord::load(Addr(0x100000) + Addr(i) * 0x10000,
                                     1, 0));
    core.setTrace(&trace);
    core.runToCompletion();
    EXPECT_GT(core.stats().get("lsq_stall_cycles"), 0u);
}

TEST_F(CoreFixture, RobFullStallsOnLongLatencyHead)
{
    // One miss followed by many plain instructions: the ROB (16 slots)
    // fills with gap instructions while the load is outstanding.
    trace.push(TraceRecord::load(0x90000, 1, 0));
    for (int i = 0; i < 10; ++i)
        trace.push(TraceRecord::load(0x90000, 1, /*gap=*/14));
    core.setTrace(&trace);
    core.runToCompletion();
    EXPECT_GT(core.stats().get("rob_stall_cycles") +
                  core.stats().get("lsq_stall_cycles"),
              0u);
}

TEST_F(CoreFixture, StoresDoNotBlockRetirement)
{
    trace.push(TraceRecord::store(0x50000, 1, 0));
    trace.push(TraceRecord::load(0x50040, 2, 0));
    core.setTrace(&trace);
    core.stepRun(1);
    // The store completed immediately from the core's perspective.
    EXPECT_LE(core.time(), 2u);
    EXPECT_EQ(core.stats().get("stores"), 1u);
}

TEST_F(CoreFixture, ControlRecordsReachThePrefetcher)
{
    struct Probe : Prefetcher {
        int controls = 0;
        void onAccess(const L2AccessInfo &) override {}
        void
        onControl(const TraceRecord &, Tick) override
        {
            ++controls;
        }
        std::string name() const override { return "probe"; }
    } probe;
    ms.setPrefetcher(0, &probe);

    trace.push(TraceRecord::control(RnrOp::Start));
    trace.push(TraceRecord::control(RnrOp::EndState));
    core.setTrace(&trace);
    core.runToCompletion();
    EXPECT_EQ(probe.controls, 2);
    EXPECT_EQ(core.stats().get("control_records"), 2u);
}

TEST_F(CoreFixture, SyncToAdvancesClockMonotonically)
{
    trace.push(TraceRecord::load(0x1000, 1, 3));
    core.setTrace(&trace);
    core.runToCompletion();
    const Tick t = core.finishTime();
    core.syncTo(t + 100);
    EXPECT_GE(core.time(), t + 100);
    core.syncTo(t); // must not move backwards
    EXPECT_GE(core.time(), t + 100);
}

TEST_F(CoreFixture, FinishTimeCoversOutstandingLoads)
{
    trace.push(TraceRecord::load(0x70000, 1, 0));
    core.setTrace(&trace);
    core.stepRun(1);
    EXPECT_GE(core.finishTime(), core.time());
    EXPECT_GT(core.finishTime(), 10u); // DRAM latency outstanding
}

} // namespace
} // namespace rnr
