/**
 * @file
 * Golden digests of whole-harness model output.  Each cell goes through
 * runExperimentUncached() on the default four-core machine for two
 * iterations, so the workload emission, the drive() interleave, the
 * memory system, the prefetcher wiring and the metadata accounting are
 * all the real thing, and its counters must hash to the committed
 * digest (tests/golden.h).  This pins the model absolutely: any
 * behavioural drift fails here, not only drift between two
 * implementations.
 *
 * Every run prints each cell's key and actual digest.  A change that
 * moves the model on purpose copies the new digests into kCells and
 * says why they changed (docs/PERF.md section 4).
 *
 * The file cache and trace store are disabled: a cache hit would
 * return stored counters instead of simulating.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "golden.h"
#include "harness/runner.h"

namespace rnr {
namespace {

struct GoldenCell {
    const char *app;
    const char *input;
    PrefetcherKind prefetcher;
    std::uint32_t window_size; ///< 0 = hardware default.
    bool ideal_llc;
    std::uint64_t digest;
};

// pagerank/amazon, hyperanf/amazon and spcg/atmosmodj (the smallest
// sparse input) x none/rnr-combined/misb/bingo, then three knob cells:
// a non-RnR prefetcher, a non-default RnR window, and the ideal LLC.
using K = PrefetcherKind;
constexpr GoldenCell kCells[] = {
    {"pagerank", "amazon", K::None, 0, false, 0x20f18740fbd64e50},
    {"pagerank", "amazon", K::RnrCombined, 0, false, 0x500794e4c9856834},
    {"pagerank", "amazon", K::Misb, 0, false, 0xf809042458f95ea3},
    {"pagerank", "amazon", K::Bingo, 0, false, 0xf581a1e7aa4562ea},
    {"hyperanf", "amazon", K::None, 0, false, 0x9a958c45c93d4350},
    {"hyperanf", "amazon", K::RnrCombined, 0, false, 0xc38bf61765474680},
    {"hyperanf", "amazon", K::Misb, 0, false, 0x8616464b61d4d2ec},
    {"hyperanf", "amazon", K::Bingo, 0, false, 0xa3d10c7b1f3b3f12},
    {"spcg", "atmosmodj", K::None, 0, false, 0x050ae9c6545ae60f},
    {"spcg", "atmosmodj", K::RnrCombined, 0, false, 0x951890af632bed82},
    {"spcg", "atmosmodj", K::Misb, 0, false, 0xee28f2f04dc5fc87},
    {"spcg", "atmosmodj", K::Bingo, 0, false, 0x75dbdbdc2f5aace5},
    {"pagerank", "amazon", K::Stream, 0, false, 0xc01f7ae480ec18cd},
    {"spcg", "atmosmodj", K::Rnr, 1024, false, 0x6e745bf5ae07b430},
    {"hyperanf", "amazon", K::Rnr, 0, true, 0x5af3fdc7c40fefe5},
};

/** gtest prints the parameter into the test list, and ctest names
 *  each test after it: "pagerank_amazon_rnr_combined", ... */
void
PrintTo(const GoldenCell &c, std::ostream *os)
{
    std::string name = std::string(c.app) + "_" + c.input + "_" +
                       toString(c.prefetcher);
    if (c.window_size)
        name += "_w" + std::to_string(c.window_size);
    if (c.ideal_llc)
        name += "_ideal";
    std::replace(name.begin(), name.end(), '-', '_');
    *os << name;
}

ExperimentConfig
configOf(const GoldenCell &cell)
{
    ExperimentConfig cfg;
    cfg.app = cell.app;
    cfg.input = cell.input;
    cfg.prefetcher = cell.prefetcher;
    cfg.window_size = cell.window_size;
    cfg.ideal_llc = cell.ideal_llc;
    cfg.iterations = 2;
    return cfg;
}

class GoldenDigestTest : public ::testing::TestWithParam<GoldenCell>
{
  protected:
    void
    SetUp() override
    {
        setenv("RNR_CACHE", "0", 1);
        setenv("RNR_TRACE_STORE", "0", 1);
    }
};

TEST_P(GoldenDigestTest, CountersMatchGolden)
{
    const ExperimentConfig cfg = configOf(GetParam());
    const ExperimentResult r = runExperimentUncached(cfg);
    ASSERT_EQ(r.iterations.size(), cfg.iterations) << cfg.key();
    const std::uint64_t actual = test::counterDigest(r);
    std::printf("golden %s %s\n", cfg.key().c_str(),
                test::hexDigest(actual).c_str());
    EXPECT_EQ(test::hexDigest(actual), test::hexDigest(GetParam().digest))
        << cfg.key();
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenDigestTest, ::testing::ValuesIn(kCells));

} // namespace
} // namespace rnr
