#include "harness/publish.h"

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "ckpt/serde.h"

#ifdef _WIN32
#include <io.h>
#include <process.h>
#define rnr_getpid _getpid
#define rnr_fsync(f) ::_commit(::_fileno(f))
#else
#include <unistd.h>
#define rnr_getpid getpid
#define rnr_fsync(f) ::fsync(::fileno(f))
#endif

namespace fs = std::filesystem;

namespace rnr {

std::string
keyHashName(const std::string &key, std::uint64_t basis)
{
    // Collision-checked by every store (the full key is kept inside the
    // entry), so the hash only has to spread, not be perfect.
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                  ckpt::fnv1a64(key.data(), key.size(), basis));
    return buf;
}

std::string
tempSuffix()
{
    static std::atomic<std::uint64_t> seq{0};
    return std::to_string(rnr_getpid()) + "." +
           std::to_string(seq.fetch_add(1));
}

bool
publishFile(const std::string &path, std::string_view bytes,
            std::string *error)
{
    std::error_code ec;
    const fs::path target(path);
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);

    const std::string tmp = path + ".tmp." + tempSuffix();
    std::string why;
    if (std::FILE *out = std::fopen(tmp.c_str(), "wb")) {
        // fsync BEFORE the rename: once the new name is visible it must
        // carry every byte, or a crash before writeback could publish a
        // torn file.
        if (std::fwrite(bytes.data(), 1, bytes.size(), out) !=
                bytes.size() ||
            std::fflush(out) != 0 || rnr_fsync(out) != 0)
            why = tmp + ": write: " + std::strerror(errno);
        if (std::fclose(out) != 0 && why.empty())
            why = tmp + ": close: " + std::strerror(errno);
        if (why.empty()) {
            fs::rename(tmp, path, ec);
            if (ec)
                why = path + ": rename: " + ec.message();
        }
        if (!why.empty())
            fs::remove(tmp, ec);
    } else {
        why = tmp + ": open: " + std::strerror(errno);
    }
    if (!why.empty() && error)
        *error = why;
    return why.empty();
}

SingleFlight::Acquire
SingleFlight::acquire(const std::string &slot, const std::string &lock_path,
                      const std::function<bool()> &probe)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (probe())
            return Acquire::Hit;
        if (!inflight_.insert(slot).second) {
            // A thread of this process is already producing.
            cv_.wait(lock);
            continue;
        }
        // In-process owner; now contend with other *processes* (farm
        // workers) for the same slot through an advisory flock.
        std::error_code ec;
        fs::create_directories(fs::path(lock_path).parent_path(), ec);
        FileLock fl(lock_path, FileLock::Mode::Try);
        if (fl.held()) {
            held_[slot] = Held{std::move(fl), lock_path};
            return Acquire::Owner;
        }
        // Another process holds the lock (or flock is unsupported
        // here).  Wait for it without wedging this process's other
        // threads: drop mu_, block on the lock, re-check from scratch.
        inflight_.erase(slot);
        cv_.notify_all();
        lock.unlock();
        FileLock waiter(lock_path, FileLock::Mode::Block);
        const bool waited = waiter.held();
        waiter.release();
        lock.lock();
        if (!waited) {
            // flock unsupported (exotic fs, Windows): degrade to the
            // single-process guarantee and produce ourselves.
            if (inflight_.insert(slot).second)
                return Acquire::Owner;
            cv_.wait(lock);
        }
        // Re-loop: the other process published (-> Hit) or gave up or
        // died (-> we become the owner on the next iteration).
    }
}

void
SingleFlight::release(const std::string &slot)
{
    std::string lock_path;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (auto it = held_.find(slot); it != held_.end()) {
            lock_path = std::move(it->second.path);
            held_.erase(it); // drops the flock
        }
        inflight_.erase(slot);
    }
    if (!lock_path.empty()) {
        // We held the flock, so no other process does: the lock file is
        // ours to remove.  A waiter racing on the old inode at worst
        // produces redundantly — the same degradation as a no-flock
        // filesystem — and the publish stays atomic either way.
        std::error_code ec;
        fs::remove(lock_path, ec);
    }
    cv_.notify_all();
}

void
SingleFlight::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.clear();
    held_.clear();
}

} // namespace rnr
