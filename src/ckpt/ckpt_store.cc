#include "ckpt/ckpt_store.h"

#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "ckpt/checkpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace fs = std::filesystem;

namespace rnr {
namespace ckpt {

namespace {

/** Null when RNR_METRICS=0; mirrors the store's own counters so one
 *  farm-wide scrape sees snapshot activity without a store handle. */
struct CkptMetrics {
    obs::Counter *warmups;
    obs::Counter *forks;
    obs::Counter *saves;
    obs::Counter *restores;
    obs::Counter *quarantines;
    CkptMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        warmups = reg.counter("rnr_ckpt_warmups_total");
        forks = reg.counter("rnr_ckpt_forks_total");
        saves = reg.counter("rnr_ckpt_saves_total");
        restores = reg.counter("rnr_ckpt_restores_total");
        quarantines = reg.counter("rnr_ckpt_quarantines_total");
    }
};

CkptMetrics &
ckptMetrics()
{
    static CkptMetrics m;
    return m;
}

/** In-flight / lock-file slot name for (key, window). */
std::string
slotName(const std::string &key, std::uint64_t window)
{
    return keyHashName(key, kCkptFnvBasis) + ".w" + std::to_string(window);
}

std::string
produceLockPath(const std::string &slot)
{
    return CheckpointStore::rootPath() + "/" + slot + ".lock";
}

/** The header key a snapshot is addressed by: the full key when set,
 *  else the workload key (input snapshots). */
const std::string &
addressKey(const SnapshotHeader &h)
{
    return h.full_key.empty() ? h.workload_key : h.full_key;
}

} // namespace

CheckpointStore &
CheckpointStore::instance()
{
    static CheckpointStore store;
    return store;
}

bool
CheckpointStore::enabled()
{
    const char *p = std::getenv("RNR_CKPT");
    return !(p && std::string(p) == "0");
}

std::string
CheckpointStore::rootPath()
{
    if (const char *p = std::getenv("RNR_CKPT_DIR"); p && *p)
        return p;
    return "rnr_ckpt";
}

std::string
CheckpointStore::snapshotPath(const std::string &key, std::uint64_t window)
{
    return rootPath() + "/" + slotName(key, window) + ".ckpt";
}

bool
CheckpointStore::openSnapshot(const std::string &key,
                              std::uint64_t window,
                              std::vector<std::uint8_t> &blob)
{
    const std::string path = snapshotPath(key, window);
    std::error_code ec;
    if (!fs::exists(path, ec))
        return false;

    std::vector<std::uint8_t> data;
    std::string why;
    if (CkptIoResult r = readSnapshotFile(path, data); !r.ok()) {
        why = r.message();
    } else {
        SnapshotReader reader;
        if (CkptIoResult r2 = reader.parse(data); !r2.ok())
            why = r2.message();
        else if (addressKey(reader.header()) != key)
            // Hash collision: the slot belongs to another key.  Miss,
            // but do NOT quarantine — the other key's snapshot is fine.
            return false;
        else if (reader.header().window != window)
            why = "header window " +
                  std::to_string(reader.header().window) +
                  " does not match slot";
    }
    if (!why.empty()) {
        obs::LogLine(obs::LogLevel::Warn, "ckpt")
            .msg("dropping corrupt snapshot")
            .kv("path", path)
            .kv("why", why);
        fs::remove(path, ec);
        ++quarantines_;
        if (obs::Counter *c = ckptMetrics().quarantines)
            c->add();
        return false;
    }
    blob = std::move(data);
    return true;
}

CheckpointStore::Acquire
CheckpointStore::acquire(const std::string &key, std::uint64_t window,
                         std::vector<std::uint8_t> &blob)
{
    const std::string slot = slotName(key, window);
    return flight_.acquire(slot, produceLockPath(slot), [&] {
        return openSnapshot(key, window, blob);
    });
}

bool
CheckpointStore::publish(const std::string &key, std::uint64_t window,
                         const std::vector<std::uint8_t> &blob)
{
    const std::string path = snapshotPath(key, window);
    const CkptIoResult r = writeSnapshotFile(path, blob);
    if (r.ok()) {
        ++saves_;
        if (obs::Counter *c = ckptMetrics().saves)
            c->add();
    } else {
        obs::LogLine(obs::LogLevel::Warn, "ckpt")
            .msg("snapshot publish failed")
            .kv("path", path)
            .kv("why", r.message());
    }
    flight_.release(slotName(key, window));
    return r.ok();
}

void
CheckpointStore::abandon(const std::string &key, std::uint64_t window)
{
    flight_.release(slotName(key, window));
}

bool
CheckpointStore::tryLoad(const std::string &key, std::uint64_t window,
                         std::vector<std::uint8_t> &blob)
{
    return flight_.locked([&] { return openSnapshot(key, window, blob); });
}

void
CheckpointStore::invalidate(const std::string &key, std::uint64_t window)
{
    std::error_code ec;
    fs::remove(snapshotPath(key, window), ec);
    ++quarantines_;
    if (obs::Counter *c = ckptMetrics().quarantines)
        c->add();
}

std::uint64_t
CheckpointStore::warmups() const
{
    return warmups_;
}

std::uint64_t
CheckpointStore::forks() const
{
    return forks_;
}

std::uint64_t
CheckpointStore::saves() const
{
    return saves_;
}

std::uint64_t
CheckpointStore::restores() const
{
    return restores_;
}

std::uint64_t
CheckpointStore::quarantines() const
{
    return quarantines_;
}

void
CheckpointStore::noteWarmup()
{
    ++warmups_;
    if (obs::Counter *c = ckptMetrics().warmups)
        c->add();
}

void
CheckpointStore::noteFork()
{
    ++forks_;
    if (obs::Counter *c = ckptMetrics().forks)
        c->add();
}

void
CheckpointStore::noteRestore()
{
    ++restores_;
    if (obs::Counter *c = ckptMetrics().restores)
        c->add();
}

void
CheckpointStore::resetForTest()
{
    flight_.resetForTest();
    warmups_ = forks_ = saves_ = restores_ = quarantines_ = 0;
}

} // namespace ckpt
} // namespace rnr
