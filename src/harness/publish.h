/**
 * @file
 * Record once, replay many: the two rules every on-disk producer in
 * the harness follows, kept in one place.
 *
 *  1. Atomic file publish (publishFile).  A file is written to a temp
 *     name unique to this call ("<path>.tmp.<pid>.<seq>"), fsync'd and
 *     renamed into place, so a reader sees either the previous file or
 *     every byte of the new one — never a torn mix — and a crash leaves
 *     only a ".tmp." leftover that the stores skip and
 *     `trace_tools ckpt gc` sweeps.  Because the temp name is per call,
 *     concurrent publishers of one path (threads or processes) never
 *     share a temp; the last rename wins with a complete file.
 *
 *  2. Single-flight production (SingleFlight).  One producer per slot
 *     across threads (mutex + condition variable) and across processes
 *     (advisory flock on a sidecar lock file, harness/file_lock.h).
 *     Waiters get the owner's product, or take over when the owner
 *     gives up or dies — a SIGKILLed owner's flock dies with it.  Where
 *     flock is unsupported the guarantee degrades to single-process.
 *
 * Users: the result cache, sweep/report/trace exporters and
 * ckpt::writeSnapshotFile publish files; TraceStore and CheckpointStore
 * own their slots through SingleFlight.  docs/HARNESS.md §7 states the
 * contract.
 */
#ifndef RNR_HARNESS_PUBLISH_H
#define RNR_HARNESS_PUBLISH_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

#include "harness/file_lock.h"

namespace rnr {

/** The standard FNV-1a64 offset basis. */
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/** 16 hex digits of FNV-1a64 over @p key from @p basis: the on-disk
 *  name stem of a store slot.  Stable across platforms and releases —
 *  existing corpora are addressed by it.  The trace store names entries
 *  from the standard basis, the checkpoint store from kCkptFnvBasis
 *  (ckpt/serde.h); each keeps its own so existing entries still hit. */
std::string keyHashName(const std::string &key,
                        std::uint64_t basis = kFnvOffsetBasis);

/** "<pid>.<seq>", unique per call within and across live processes;
 *  the suffix of every ".tmp." name the harness creates. */
std::string tempSuffix();

/**
 * Atomically replaces @p path with @p bytes: creates the parent
 * directory, writes "<path>.tmp.<tempSuffix()>", fsyncs, renames.  The
 * temp is removed on any failure.  Returns false (and fills @p error
 * when given) on failure; the previous file, if any, is untouched.
 */
bool publishFile(const std::string &path, std::string_view bytes,
                 std::string *error = nullptr);

/** Per-slot single-flight production, in-process and cross-process. */
class SingleFlight
{
  public:
    enum class Acquire {
        Hit,   ///< The probe found the product; nothing to produce.
        Owner, ///< Caller must produce, then release(slot).
    };

    /**
     * Runs @p probe (under the flight mutex) until it finds the product
     * (Hit) or this caller wins @p slot (Owner).  While another thread
     * owns the slot the caller sleeps; while another process holds the
     * flock on @p lock_path it blocks on that flock without holding the
     * mutex, then probes again — the other process published (Hit) or
     * died or gave up (this caller becomes Owner).
     */
    Acquire acquire(const std::string &slot, const std::string &lock_path,
                    const std::function<bool()> &probe);

    /** Frees a slot this caller owns (after publishing or giving up):
     *  drops and removes its lock file and wakes the waiters. */
    void release(const std::string &slot);

    /** Runs @p fn under the flight mutex, atomically with every probe
     *  (publish into place, quarantine, eviction). */
    template <class Fn>
    decltype(auto)
    locked(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return fn();
    }

    /** Forgets every slot and drops held locks (tests). */
    void resetForTest();

  private:
    struct Held {
        FileLock lock;
        std::string path;
    };

    std::mutex mu_;
    std::condition_variable cv_;
    std::set<std::string> inflight_;   ///< Slots owned in this process.
    std::map<std::string, Held> held_; ///< Their cross-process locks.
};

} // namespace rnr

#endif // RNR_HARNESS_PUBLISH_H
