/**
 * @file
 * TraceSource block API tests: the core model pulls whole runs via
 * takeBlock(), so BufferSource must hand back zero-copy views of the
 * remaining buffer and an empty run at the end.
 */
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "trace/trace_source.h"

namespace rnr {
namespace {

TraceBuffer
makeBuffer(std::size_t n)
{
    TraceBuffer b;
    for (std::size_t i = 0; i < n; ++i)
        b.push(TraceRecord::load(0x1000 + Addr(i) * 64,
                                 static_cast<std::uint32_t>(i),
                                 static_cast<std::uint16_t>(i % 4)));
    return b;
}

TEST(BufferSourceBlockTest, TakeBlockReturnsWholeRemainderZeroCopy)
{
    const TraceBuffer buf = makeBuffer(100);
    BufferSource src(&buf);

    std::size_t n = 0;
    const TraceRecord *run = src.takeBlock(n);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(n, 100u);
    // Zero-copy: the run IS the buffer's storage, not a staged copy.
    EXPECT_EQ(run, buf.records().data());
    EXPECT_EQ(src.takeBlock(n), nullptr);
    EXPECT_EQ(n, 0u);
}

TEST(BufferSourceBlockTest, EmptyAndDetachedBuffersYieldNoRun)
{
    std::size_t n = 7;
    BufferSource detached;
    EXPECT_EQ(detached.takeBlock(n), nullptr);
    EXPECT_EQ(n, 0u);

    const TraceBuffer empty;
    BufferSource src(&empty);
    n = 7;
    EXPECT_EQ(src.takeBlock(n), nullptr);
    EXPECT_EQ(n, 0u);
}

} // namespace
} // namespace rnr
