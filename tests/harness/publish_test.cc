/**
 * @file
 * harness/publish tests: atomic file publish (including many threads
 * publishing one path at once), the stable slot hash name, and
 * SingleFlight's cross-process half — a forked owner that publishes,
 * and one that is SIGKILLed while it owns the slot.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "ckpt/ckpt_store.h"
#include "harness/publish.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

class PublishTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = (fs::temp_directory_path() /
                 ("rnr_publish_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
        fs::remove_all(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    static std::string
    slurp(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    /** Names in @p dir containing ".tmp." (publish leftovers). */
    static std::vector<std::string>
    tempLeftovers(const std::string &dir)
    {
        std::vector<std::string> out;
        std::error_code ec;
        for (const auto &e : fs::directory_iterator(dir, ec)) {
            const std::string name = e.path().filename().string();
            if (name.find(".tmp.") != std::string::npos)
                out.push_back(name);
        }
        return out;
    }

    std::string root_;
};

TEST_F(PublishTest, PublishCreatesParentAndReplacesAtomically)
{
    const std::string path = root_ + "/a/b/out.json";
    ASSERT_TRUE(publishFile(path, "first"));
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(publishFile(path, std::string(1 << 16, 'x')));
    EXPECT_EQ(slurp(path), std::string(1 << 16, 'x'));
    EXPECT_TRUE(tempLeftovers(root_ + "/a/b").empty());
}

TEST_F(PublishTest, FailedPublishReportsAndLeavesNoTemp)
{
    // The parent "directory" is a regular file: open must fail.
    ASSERT_TRUE(publishFile(root_ + "/blocker", "x"));
    std::string error;
    EXPECT_FALSE(publishFile(root_ + "/blocker/out.json", "y", &error));
    EXPECT_NE(error.find("open"), std::string::npos) << error;
    EXPECT_EQ(slurp(root_ + "/blocker"), "x");
    EXPECT_TRUE(tempLeftovers(root_).empty());
}

TEST_F(PublishTest, ConcurrentPublishersOfOnePathNeverTearIt)
{
    // Traced sweep cells all publish RNR_TRACE_OUT: every call must
    // succeed and the survivor must be one writer's complete payload.
    constexpr int kThreads = 8;
    constexpr int kRounds = 25;
    const std::string path = root_ + "/trace.json";
    auto payload = [](int t, int r) {
        std::ostringstream os;
        os << "{\"writer\": " << t << ", \"round\": " << r << ", \"pad\": \""
           << std::string(4096 + 97 * t + r, static_cast<char>('a' + t))
           << "\"}\n";
        return os.str();
    };
    std::vector<std::string> all;
    for (int t = 0; t < kThreads; ++t)
        for (int r = 0; r < kRounds; ++r)
            all.push_back(payload(t, r));

    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r)
                if (!publishFile(path, payload(t, r)))
                    ++failures[t];
        });
    for (auto &th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "writer " << t;
    const std::string final_bytes = slurp(path);
    EXPECT_NE(std::find(all.begin(), all.end(), final_bytes), all.end())
        << "final file is not one complete payload (" << final_bytes.size()
        << " bytes)";
    EXPECT_TRUE(tempLeftovers(root_).empty());
}

TEST_F(PublishTest, TempSuffixIsUniquePerCall)
{
    EXPECT_NE(tempSuffix(), tempSuffix());
}

TEST(KeyHashName, GoldenValuesKeepExistingCorporaAddressable)
{
    // rnr_traces/ and rnr_ckpt/ name entries by these hashes; a change
    // here would orphan every existing entry.
    const std::string key = "pagerank:u16:w4096:i3:n2";
    EXPECT_EQ(keyHashName(key), "a2955d80ee1a549e");
    EXPECT_EQ(keyHashName(""), "cbf29ce484222325");
    setenv("RNR_CKPT_DIR", "ckpt-root", 1);
    EXPECT_EQ(ckpt::CheckpointStore::snapshotPath(key, 2),
              "ckpt-root/de1839ce1df7d47c.w2.ckpt");
    unsetenv("RNR_CKPT_DIR");
}

#ifndef _WIN32

/** Forks a child that owns @p slot through its own SingleFlight, tells
 *  the parent over a pipe, then runs @p then_in_child and _exits. */
template <class Fn>
pid_t
forkOwner(const std::string &slot, const std::string &lock_path,
          Fn then_in_child)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return -1;
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        SingleFlight flight;
        if (flight.acquire(slot, lock_path, [] { return false; }) !=
            SingleFlight::Acquire::Owner)
            ::_exit(2);
        const char owned = 'o';
        if (::write(fds[1], &owned, 1) != 1)
            ::_exit(3);
        then_in_child(flight);
        ::_exit(0);
    }
    ::close(fds[1]);
    char owned = 0;
    const bool ok = pid > 0 && ::read(fds[0], &owned, 1) == 1;
    ::close(fds[0]);
    return ok ? pid : -1;
}

TEST_F(PublishTest, WaiterOnAnotherProcessGetsItsProduct)
{
    fs::create_directories(root_);
    const std::string product = root_ + "/slot.ckpt";
    const std::string lock_path = root_ + "/slot.lock";
    const pid_t child =
        forkOwner("slot", lock_path, [&](SingleFlight &flight) {
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
            publishFile(product, "produced by child");
            flight.release("slot");
        });
    ASSERT_GT(child, 0);

    SingleFlight flight;
    int probes = 0;
    const SingleFlight::Acquire got =
        flight.acquire("slot", lock_path, [&] {
            ++probes;
            return fs::exists(product);
        });
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;

    EXPECT_EQ(got, SingleFlight::Acquire::Hit);
    EXPECT_GE(probes, 2) << "the first probe ran before the child published";
    EXPECT_EQ(slurp(product), "produced by child");
}

TEST_F(PublishTest, KilledOwnerPromotesTheWaiter)
{
    fs::create_directories(root_);
    const std::string lock_path = root_ + "/slot.lock";
    const pid_t child = forkOwner("slot", lock_path, [](SingleFlight &) {
        for (;;)
            ::pause();
    });
    ASSERT_GT(child, 0);

    std::thread killer([child] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        ::kill(child, SIGKILL);
    });
    SingleFlight flight;
    const SingleFlight::Acquire got =
        flight.acquire("slot", lock_path, [] { return false; });
    killer.join();
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    EXPECT_EQ(got, SingleFlight::Acquire::Owner);
    flight.release("slot");
    EXPECT_FALSE(fs::exists(lock_path));
}

#endif // _WIN32

} // namespace
} // namespace rnr
