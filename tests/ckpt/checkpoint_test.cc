/**
 * @file
 * rnr-ckpt-v1 container tests plus the restore-fidelity matrix:
 * checkpoint at window k, restore, run to the end — the IterStats and
 * the sweep JSON must be byte-identical to the straight run, for
 * {pagerank, spcg} x {droplet, rnr} at window 1, for pagerank/rnr at
 * window 2, and for the flat-table baselines (misb, bingo, stems, ghb,
 * domino, imp), whose snapshot sections must also re-serialise
 * byte-identically.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"
#include "harness/result_cache.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "prefetch/factory.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = (fs::temp_directory_path() /
                 ("rnr_ckpt_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
        fs::remove_all(root_);
        setenv("RNR_CKPT_DIR", root_.c_str(), 1);
        unsetenv("RNR_CKPT");
        // Hermetic: no result cache, no trace corpus, no progress bars.
        setenv("RNR_CACHE", "0", 1);
        setenv("RNR_TRACE_STORE", "0", 1);
        setenv("RNR_PROGRESS", "0", 1);
        ckpt::CheckpointStore::instance().resetForTest();
        ckpt::resetInputForkForTest();
        ResultCache::instance().clearForTest();
    }

    void
    TearDown() override
    {
        ckpt::CheckpointStore::instance().resetForTest();
        ckpt::resetInputForkForTest();
        unsetenv("RNR_CKPT_DIR");
        fs::remove_all(root_);
    }

    static ExperimentConfig
    smallConfig(const std::string &app, PrefetcherKind pf)
    {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.input = app == "spcg" ? "atmosmodj" : "urand";
        cfg.prefetcher = pf;
        cfg.iterations = 3;
        cfg.cores = 2;
        return cfg;
    }

    static void
    expectSameResult(const ExperimentResult &a, const ExperimentResult &b,
                     const std::string &what)
    {
        ASSERT_EQ(a.iterations.size(), b.iterations.size()) << what;
        for (std::size_t i = 0; i < a.iterations.size(); ++i) {
#define RNR_CHECK_FIELD(type, name)                                          \
    EXPECT_EQ(a.iterations[i].name, b.iterations[i].name)                    \
        << what << " iter " << i << " field " #name;
            RNR_ITER_STAT_FIELDS(RNR_CHECK_FIELD)
#undef RNR_CHECK_FIELD
        }
        EXPECT_EQ(a.input_bytes, b.input_bytes) << what;
        EXPECT_EQ(a.target_bytes, b.target_bytes) << what;
        EXPECT_EQ(a.seq_table_bytes, b.seq_table_bytes) << what;
        EXPECT_EQ(a.div_table_bytes, b.div_table_bytes) << what;
    }

    static std::string
    fileBytes(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    std::string root_;
};

TEST_F(CheckpointTest, ContainerRoundTripsHeaderAndSections)
{
    ckpt::SnapshotWriter w(ckpt::SnapshotHeader{"wkey", "fullkey", 2});
    {
        ckpt::Ser &s = w.section(ckpt::SectionId::Meta);
        s.scalar(std::uint64_t{42});
    }
    {
        ckpt::Ser &s = w.section(ckpt::SectionId::System);
        s.scalar(std::uint64_t{7});
        s.scalar(std::uint64_t{8});
    }
    const std::vector<std::uint8_t> blob = w.finish();

    ckpt::SnapshotReader r;
    ASSERT_TRUE(r.parse(blob).ok());
    EXPECT_EQ(r.header().workload_key, "wkey");
    EXPECT_EQ(r.header().full_key, "fullkey");
    EXPECT_EQ(r.header().window, 2u);
    ASSERT_EQ(r.sections().size(), 2u);
    EXPECT_TRUE(r.hasSection(ckpt::SectionId::Meta));
    EXPECT_TRUE(r.hasSection(ckpt::SectionId::System));
    EXPECT_FALSE(r.hasSection(ckpt::SectionId::Harness));

    ckpt::Deser meta = r.section(ckpt::SectionId::Meta);
    std::uint64_t v = 0;
    meta.scalar(v);
    EXPECT_TRUE(meta.ok());
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(meta.remaining(), 0u);

    ckpt::Deser sys = r.section(ckpt::SectionId::System);
    sys.scalar(v);
    EXPECT_EQ(v, 7u);
    sys.scalar(v);
    EXPECT_EQ(v, 8u);
    EXPECT_TRUE(sys.ok());

    // An absent section reads as an empty archive, not a crash.
    ckpt::Deser missing = r.section(ckpt::SectionId::Harness);
    missing.scalar(v);
    EXPECT_FALSE(missing.ok());
}

TEST_F(CheckpointTest, CorruptContainersFailTyped)
{
    ckpt::SnapshotWriter w(ckpt::SnapshotHeader{"k", "", 0});
    w.section(ckpt::SectionId::Input).scalar(std::uint64_t{1});
    const std::vector<std::uint8_t> blob = w.finish();
    ckpt::SnapshotReader r;

    // Bit flip anywhere -> BadChecksum.
    std::vector<std::uint8_t> flipped = blob;
    flipped[blob.size() / 2] ^= 0x40;
    EXPECT_EQ(r.parse(flipped).status, ckpt::CkptIoStatus::BadChecksum);

    // Truncation -> Truncated.
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + 10);
    EXPECT_EQ(r.parse(cut).status, ckpt::CkptIoStatus::Truncated);

    // Wrong magic -> BadMagic.
    std::vector<std::uint8_t> magic = blob;
    magic[0] = 'X';
    EXPECT_EQ(r.parse(magic).status, ckpt::CkptIoStatus::BadMagic);

    // Future version (with a recomputed checksum) -> BadVersion.
    std::vector<std::uint8_t> ver = blob;
    ver[8] = 2; // version u64 starts right after the 8-byte magic
    const std::uint64_t sum =
        ckpt::fnv1a64(ver.data(), ver.size() - 8);
    for (int i = 0; i < 8; ++i)
        ver[ver.size() - 8 + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    EXPECT_EQ(r.parse(ver).status, ckpt::CkptIoStatus::BadVersion);
}

TEST_F(CheckpointTest, SnapshotFileRoundTripsAndInspects)
{
    ckpt::SnapshotWriter w(ckpt::SnapshotHeader{"wkey", "full", 1});
    w.section(ckpt::SectionId::Meta).scalar(std::uint64_t{5});
    const std::vector<std::uint8_t> blob = w.finish();

    const std::string path = root_ + "/snap.ckpt";
    ASSERT_TRUE(ckpt::writeSnapshotFile(path, blob).ok());
    // The publish left no temp file behind.
    std::size_t files = 0;
    for (const auto &f : fs::directory_iterator(root_)) {
        (void)f;
        ++files;
    }
    EXPECT_EQ(files, 1u);

    std::vector<std::uint8_t> back;
    ASSERT_TRUE(ckpt::readSnapshotFile(path, back).ok());
    EXPECT_EQ(back, blob);

    ckpt::SnapshotInfo info;
    ASSERT_TRUE(ckpt::inspectSnapshotFile(path, info).ok());
    EXPECT_EQ(info.header.workload_key, "wkey");
    EXPECT_EQ(info.header.window, 1u);
    EXPECT_EQ(info.total_bytes, blob.size());
    ASSERT_EQ(info.sections.size(), 1u);
    EXPECT_EQ(info.sections[0].id,
              static_cast<std::uint64_t>(ckpt::SectionId::Meta));

    EXPECT_EQ(ckpt::readSnapshotFile(root_ + "/absent.ckpt", back).status,
              ckpt::CkptIoStatus::OpenFail);
}

TEST_F(CheckpointTest, SnapshotCoversEverySection)
{
    // Registration assertion: every section in the registry is carried
    // by a full snapshot, an input snapshot, or is explicitly reserved.
    // Adding a section to RNR_CKPT_SECTIONS without teaching the
    // capture paths about it fails here.
    ExperimentConfig cfg = smallConfig("pagerank", PrefetcherKind::Rnr);
    std::vector<std::uint8_t> full_blob;
    (void)runExperimentCheckpointed(cfg, 1, full_blob);
    ckpt::SnapshotReader full;
    ASSERT_TRUE(full.parse(full_blob).ok());
    EXPECT_EQ(full.header().workload_key, cfg.workloadKey());
    EXPECT_EQ(full.header().full_key, cfg.key());
    // Meta: a reserved word (always 0), then cores and iterations.
    ckpt::Deser meta = full.section(ckpt::SectionId::Meta);
    std::uint64_t reserved_word = 1, cores = 0, iterations = 0;
    meta.scalar(reserved_word);
    meta.scalar(cores);
    meta.scalar(iterations);
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(reserved_word, 0u);
    EXPECT_EQ(cores, cfg.cores);
    EXPECT_EQ(iterations, cfg.iterations);

    std::vector<std::uint8_t> input_blob;
    ASSERT_TRUE(ckpt::CheckpointStore::instance().tryLoad(
        cfg.workloadKey(), 0, input_blob))
        << "the run should have published an input snapshot";
    ckpt::SnapshotReader input;
    ASSERT_TRUE(input.parse(input_blob).ok());
    EXPECT_TRUE(input.header().full_key.empty());

    const std::set<ckpt::SectionId> reserved = {
        ckpt::SectionId::Workload};
    for (ckpt::SectionId id : ckpt::allSectionIds()) {
        const bool covered =
            full.hasSection(id) || input.hasSection(id);
        EXPECT_TRUE(covered || reserved.count(id))
            << "section " << ckpt::toString(id)
            << " is registered but never captured (and not reserved)";
    }
    // And the names are wired up.
    for (ckpt::SectionId id : ckpt::allSectionIds())
        EXPECT_STRNE(ckpt::toString(id), "?");
}

TEST_F(CheckpointTest, RestoreContinuationIsBitIdentical)
{
    struct Case {
        const char *app;
        PrefetcherKind pf;
        unsigned window;
    };
    // Window 1 over the app x prefetcher matrix; window 2 restores RnR
    // tables that have already replayed once.
    for (const Case &c : {Case{"pagerank", PrefetcherKind::Droplet, 1},
                          Case{"pagerank", PrefetcherKind::Rnr, 1},
                          Case{"spcg", PrefetcherKind::Droplet, 1},
                          Case{"spcg", PrefetcherKind::Rnr, 1},
                          Case{"pagerank", PrefetcherKind::Rnr, 2}}) {
        const ExperimentConfig cfg = smallConfig(c.app, c.pf);
        const std::string what = std::string(c.app) + "/" +
                                 toString(c.pf) + "/w" +
                                 std::to_string(c.window);

        const ExperimentResult straight = runExperimentUncached(cfg);
        std::vector<std::uint8_t> blob;
        const ExperimentResult snapped =
            runExperimentCheckpointed(cfg, c.window, blob);
        expectSameResult(straight, snapped, what + " (snapshotting run)");

        const ExperimentResult resumed = runExperimentFromSnapshot(cfg, blob);
        expectSameResult(straight, resumed, what + " (restored run)");

        // Sweep JSON: byte-identical exports.
        const std::string a = root_ + "/straight.json";
        const std::string b = root_ + "/resumed.json";
        ASSERT_TRUE(writeResultsJson(a, {straight}, "fidelity"));
        ASSERT_TRUE(writeResultsJson(b, {resumed}, "fidelity"));
        EXPECT_EQ(fileBytes(a), fileBytes(b)) << what;
    }
}

TEST_F(CheckpointTest, FlatTablePrefetchersRestoreBitIdentically)
{
    // The baselines whose tables are FlatMap/LruTable (sim/flat_table.h):
    // restore-and-continue is bit-identical, and their snapshot section
    // re-serialises to the same bytes (save -> load -> save), so the
    // tables' serialisation does not depend on their insertion history.
    for (PrefetcherKind pf :
         {PrefetcherKind::Misb, PrefetcherKind::Bingo, PrefetcherKind::Stems,
          PrefetcherKind::Ghb, PrefetcherKind::Domino, PrefetcherKind::Imp}) {
        ExperimentConfig cfg = smallConfig("pagerank", pf);
        cfg.input = "amazon";
        cfg.iterations = 2;
        const std::string what = toString(pf);

        const ExperimentResult straight = runExperimentUncached(cfg);
        std::vector<std::uint8_t> blob;
        const ExperimentResult snapped =
            runExperimentCheckpointed(cfg, 1, blob);
        expectSameResult(straight, snapped, what + " (snapshotting run)");
        const ExperimentResult resumed =
            runExperimentFromSnapshot(cfg, blob);
        expectSameResult(straight, resumed, what + " (restored run)");

        ckpt::SnapshotReader reader;
        ASSERT_TRUE(reader.parse(blob).ok()) << what;
        ckpt::Deser section = reader.section(ckpt::SectionId::Prefetchers);
        std::vector<std::uint8_t> saved(section.remaining());
        section.raw(saved.data(), saved.size());

        ckpt::Deser in(saved);
        std::vector<std::unique_ptr<Prefetcher>> loaded;
        for (unsigned c = 0; c < cfg.cores; ++c) {
            loaded.push_back(createPrefetcher(pf));
            loaded.back()->loadState(in);
        }
        ASSERT_TRUE(in.ok()) << what << ": " << in.error();
        EXPECT_EQ(in.remaining(), 0u) << what;
        ckpt::Ser again;
        for (const auto &p : loaded)
            p->saveState(again);
        EXPECT_EQ(again.buffer(), saved) << what;
    }
}

TEST_F(CheckpointTest, CorruptSnapshotThrowsTypedAndStoreRecaptures)
{
    const ExperimentConfig cfg =
        smallConfig("pagerank", PrefetcherKind::Droplet);
    std::vector<std::uint8_t> blob;
    const ExperimentResult straight =
        runExperimentCheckpointed(cfg, 1, blob);

    // Truncated blob -> typed CorruptSnapshot, never a crash.
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + blob.size() / 2);
    try {
        (void)runExperimentFromSnapshot(cfg, cut);
        FAIL() << "truncated snapshot must throw";
    } catch (const ckpt::CorruptSnapshot &e) {
        EXPECT_NE(e.status, ckpt::CkptIoStatus::Ok);
    }

    // Wrong config -> KeyMismatch.
    ExperimentConfig other = cfg;
    other.prefetcher = PrefetcherKind::Rnr;
    try {
        (void)runExperimentFromSnapshot(other, blob);
        FAIL() << "foreign snapshot must throw";
    } catch (const ckpt::CorruptSnapshot &e) {
        EXPECT_EQ(e.status, ckpt::CkptIoStatus::KeyMismatch);
    }

    // Store front door: publish a corrupt snapshot into the slot; the
    // resumable run quarantines it and re-produces, bit-identically.
    ckpt::CheckpointStore &store = ckpt::CheckpointStore::instance();
    ASSERT_TRUE(ckpt::writeSnapshotFile(
                    ckpt::CheckpointStore::snapshotPath(cfg.key(), 1),
                    cut)
                    .ok());
    const std::uint64_t quarantines_before = store.quarantines();
    const ExperimentResult recovered = runExperimentResumable(cfg, 1);
    expectSameResult(straight, recovered, "recaptured-after-corrupt");
    EXPECT_GT(store.quarantines(), quarantines_before);

    // And the re-published snapshot now restores cleanly.
    const std::uint64_t restores_before = store.restores();
    const ExperimentResult resumed = runExperimentResumable(cfg, 1);
    expectSameResult(straight, resumed, "restored-after-recapture");
    EXPECT_EQ(store.restores(), restores_before + 1);
}

} // namespace
} // namespace rnr
