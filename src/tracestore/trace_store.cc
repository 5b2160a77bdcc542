#include "tracestore/trace_store.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_file.h"

namespace fs = std::filesystem;

namespace rnr {

namespace {

constexpr char kManifestMagic[] = "rnr-tracestore-v1";

/** Null when RNR_METRICS=0; mirrors the store's own counters so one
 *  farm-wide scrape sees corpus activity without a TraceStore handle. */
struct StoreMetrics {
    obs::Counter *captures;
    obs::Counter *replays;
    obs::Counter *quarantines;
    obs::Counter *evictions;
    StoreMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        captures = reg.counter("rnr_tracestore_captures_total");
        replays = reg.counter("rnr_tracestore_replays_total");
        quarantines = reg.counter("rnr_tracestore_quarantines_total");
        evictions = reg.counter("rnr_tracestore_evictions_total");
    }
};

StoreMetrics &
storeMetrics()
{
    static StoreMetrics m;
    return m;
}

std::string
manifestPath(const std::string &dir)
{
    return dir + "/manifest";
}

/** Parses an entry manifest; false on any malformation. */
bool
parseManifest(const std::string &dir, TraceStore::Entry &out)
{
    std::ifstream in(manifestPath(dir));
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line) || line != kManifestMagic)
        return false;
    TraceStore::Entry e;
    e.dir = dir;
    bool have_key = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string field;
        if (!(ls >> field))
            continue;
        if (field == "key") {
            // The key is everything after "key " (keys contain ':').
            const auto sp = line.find(' ');
            if (sp == std::string::npos)
                return false;
            e.key = line.substr(sp + 1);
            have_key = true;
        } else if (field == "iterations") {
            if (!(ls >> e.iterations))
                return false;
        } else if (field == "cores") {
            if (!(ls >> e.cores))
                return false;
        } else if (field == "records") {
            if (!(ls >> e.records))
                return false;
        } else if (field == "raw_bytes") {
            if (!(ls >> e.raw_bytes))
                return false;
        } else if (field == "stored_bytes") {
            if (!(ls >> e.stored_bytes))
                return false;
        } else if (field == "input_bytes") {
            if (!(ls >> e.input_bytes))
                return false;
        } else if (field == "target_bytes") {
            if (!(ls >> e.target_bytes))
                return false;
        } // unknown fields: forward-compatible skip
    }
    if (!have_key || e.iterations == 0 || e.cores == 0)
        return false;
    out = e;
    return true;
}

std::uint64_t
entryStoredBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &f : fs::directory_iterator(dir, ec)) {
        std::error_code fec;
        const std::uintmax_t n = fs::file_size(f.path(), fec);
        if (!fec)
            total += static_cast<std::uint64_t>(n);
    }
    return total;
}

std::string
entryDir(const std::string &wkey)
{
    return TraceStore::rootPath() + "/" + keyHashName(wkey);
}

} // namespace

TraceStore &
TraceStore::instance()
{
    static TraceStore store;
    return store;
}

bool
TraceStore::enabled()
{
    const char *p = std::getenv("RNR_TRACE_STORE");
    return !(p && std::string(p) == "0");
}

std::string
TraceStore::rootPath()
{
    if (const char *p = std::getenv("RNR_TRACE_DIR"); p && *p)
        return p;
    return "rnr_traces";
}

std::uint64_t
TraceStore::capBytes()
{
    const char *p = std::getenv("RNR_TRACE_CAP_MB");
    if (!p || !*p)
        return 0;
    return std::strtoull(p, nullptr, 10) * 1024ull * 1024ull;
}

std::string
TraceStore::Entry::tracePath(unsigned iter, unsigned core) const
{
    return dir + "/it" + std::to_string(iter) + ".c" +
           std::to_string(core) + ".rnrt";
}

bool
TraceStore::openEntry(const std::string &wkey, Entry &out)
{
    const std::string dir = entryDir(wkey);
    std::error_code ec;
    if (!fs::exists(dir, ec))
        return false;

    Entry e;
    std::string why;
    if (!parseManifest(dir, e)) {
        why = "unreadable manifest";
    } else if (e.key != wkey) {
        // Hash collision: the slot belongs to another key.  Miss, but
        // do NOT quarantine — the other key's entry is intact.
        return false;
    } else {
        std::uint64_t records = 0;
        for (unsigned it = 0; it < e.iterations && why.empty(); ++it) {
            for (unsigned c = 0; c < e.cores && why.empty(); ++c) {
                TraceFileStats stats;
                const std::string path = e.tracePath(it, c);
                if (TraceIoResult r = readAnyTraceFileStats(path, stats);
                    !r)
                    why = path + ": " + r.message();
                else
                    records += stats.records;
            }
        }
        if (why.empty() && records != e.records)
            why = "manifest claims " + std::to_string(e.records) +
                  " records, files carry " + std::to_string(records);
    }
    if (!why.empty()) {
        // Corrupt entry: quarantine and recapture instead of failing.
        obs::LogLine(obs::LogLevel::Warn, "tracestore")
            .msg("dropping corrupt entry")
            .kv("dir", dir)
            .kv("why", why);
        fs::remove_all(dir, ec);
        ++corrupt_;
        if (obs::Counter *c = storeMetrics().quarantines)
            c->add();
        return false;
    }
    out = e;
    return true;
}

TraceStore::Acquire
TraceStore::acquire(const std::string &wkey, Entry &out)
{
    const Acquire a = flight_.acquire(wkey, entryDir(wkey) + ".lock",
                                      [&] { return openEntry(wkey, out); });
    if (a == Acquire::Hit) {
        ++hits_;
        if (obs::Counter *c = storeMetrics().replays)
            c->add();
    }
    return a;
}

// ---- Capture ----

TraceStore::Capture::Capture(TraceStore *store, std::string wkey,
                             unsigned iterations, unsigned cores)
    : store_(store), wkey_(std::move(wkey)), iterations_(iterations),
      cores_(cores)
{
    tmp_dir_ = rootPath() + "/.tmp." + keyHashName(wkey_) + "." +
               tempSuffix();
    std::error_code ec;
    fs::create_directories(tmp_dir_, ec);
    open_ = !ec;
}

TraceStore::Capture::Capture(Capture &&other) noexcept
    : store_(other.store_), wkey_(std::move(other.wkey_)),
      tmp_dir_(std::move(other.tmp_dir_)), iterations_(other.iterations_),
      cores_(other.cores_), records_(other.records_),
      raw_bytes_(other.raw_bytes_), open_(other.open_), done_(other.done_)
{
    other.done_ = true;
    other.store_ = nullptr;
}

TraceStore::Capture::~Capture()
{
    if (done_ || !store_)
        return;
    // Abort: drop the partial capture and let a waiter take over.
    std::error_code ec;
    fs::remove_all(tmp_dir_, ec);
    store_->flight_.release(wkey_);
}

TraceIoResult
TraceStore::Capture::add(unsigned iter, unsigned core,
                         const TraceBuffer &buf)
{
    if (!open_)
        return TraceIoResult::fail(TraceIoStatus::OpenFailed, tmp_dir_);
    const std::string path = tmp_dir_ + "/it" + std::to_string(iter) +
                             ".c" + std::to_string(core) + ".rnrt";
    records_ += buf.size();
    raw_bytes_ += buf.memoryBytes();
    return writeTraceFileV2(path, buf);
}

bool
TraceStore::Capture::publish(std::uint64_t input_bytes,
                             std::uint64_t target_bytes)
{
    done_ = true;
    std::error_code ec;
    bool ok = open_;
    std::uint64_t stored = 0;
    if (ok) {
        stored = entryStoredBytes(tmp_dir_);
        std::ofstream mf(manifestPath(tmp_dir_), std::ios::trunc);
        mf << kManifestMagic << "\n"
           << "key " << wkey_ << "\n"
           << "iterations " << iterations_ << "\n"
           << "cores " << cores_ << "\n"
           << "records " << records_ << "\n"
           << "raw_bytes " << raw_bytes_ << "\n"
           << "stored_bytes " << stored << "\n"
           << "input_bytes " << input_bytes << "\n"
           << "target_bytes " << target_bytes << "\n";
        mf.flush();
        ok = static_cast<bool>(mf);
    }

    const std::string final_dir = entryDir(wkey_);
    // Install under the flight mutex so no probe sees a half-replaced
    // or half-evicted directory.
    const auto install = [&] {
        Entry theirs;
        if (parseManifest(final_dir, theirs) && theirs.key == wkey_) {
            // Another process published this key first: keep theirs.
            fs::remove_all(tmp_dir_, ec);
        } else {
            // Absent, or a hash collision (ours is the one being asked
            // for right now): install ours.
            fs::remove_all(final_dir, ec);
            fs::rename(tmp_dir_, final_dir, ec);
            if (ec)
                return false;
        }
        ++store_->captures_;
        if (obs::Counter *c = storeMetrics().captures)
            c->add();
        store_->applyCap(final_dir);
        return true;
    };
    ok = ok && store_->flight_.locked(install);
    if (!ok)
        fs::remove_all(tmp_dir_, ec);
    else
        obs::LogLine(obs::LogLevel::Info, "tracestore")
            .msg("captured workload")
            .kv("workload", wkey_)
            .kv("records", records_)
            .kv("raw_bytes", raw_bytes_)
            .kv("stored_bytes", stored)
            .kv("ratio", stored ? static_cast<double>(raw_bytes_) /
                                      static_cast<double>(stored)
                                : 0.0);
    store_->flight_.release(wkey_);
    return ok;
}

TraceStore::Capture
TraceStore::beginCapture(const std::string &wkey, unsigned iterations,
                         unsigned cores)
{
    return Capture(this, wkey, iterations, cores);
}

void
TraceStore::invalidate(const std::string &wkey)
{
    flight_.locked([&] {
        std::error_code ec;
        fs::remove_all(entryDir(wkey), ec);
    });
    ++corrupt_;
    if (obs::Counter *c = storeMetrics().quarantines)
        c->add();
}

void
TraceStore::applyCap(const std::string &keep_dir)
{
    const std::uint64_t cap = capBytes();
    if (cap == 0)
        return;
    struct Candidate {
        fs::file_time_type mtime;
        std::string dir;
        std::uint64_t bytes;
    };
    std::vector<Candidate> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &d : fs::directory_iterator(rootPath(), ec)) {
        if (!d.is_directory())
            continue;
        const std::string dir = d.path().string();
        if (d.path().filename().string().rfind(".tmp.", 0) == 0)
            continue;
        const std::uint64_t bytes = entryStoredBytes(dir);
        total += bytes;
        std::error_code mec;
        const auto mtime = fs::last_write_time(
            manifestPath(dir), mec);
        if (dir != keep_dir)
            entries.push_back({mec ? fs::file_time_type::min() : mtime,
                               dir, bytes});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.mtime < b.mtime;
              });
    for (const Candidate &c : entries) {
        if (total <= cap)
            break;
        fs::remove_all(c.dir, ec);
        total -= c.bytes;
        ++evictions_;
        if (obs::Counter *ec_ctr = storeMetrics().evictions)
            ec_ctr->add();
        obs::LogLine(obs::LogLevel::Info, "tracestore")
            .msg("evicted entry for RNR_TRACE_CAP_MB")
            .kv("dir", c.dir)
            .kv("bytes", c.bytes);
    }
}

std::vector<TraceStore::Entry>
TraceStore::listEntries()
{
    std::vector<Entry> out;
    std::error_code ec;
    for (const auto &d : fs::directory_iterator(rootPath(), ec)) {
        if (!d.is_directory())
            continue;
        if (d.path().filename().string().rfind(".tmp.", 0) == 0)
            continue;
        Entry e;
        if (parseManifest(d.path().string(), e))
            out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) { return a.key < b.key; });
    return out;
}

std::uint64_t
TraceStore::captures() const
{
    return captures_;
}

std::uint64_t
TraceStore::hits() const
{
    return hits_;
}

std::uint64_t
TraceStore::corruptEntries() const
{
    return corrupt_;
}

std::uint64_t
TraceStore::evictions() const
{
    return evictions_;
}

void
TraceStore::resetForTest()
{
    flight_.resetForTest();
    captures_ = hits_ = corrupt_ = evictions_ = 0;
}

} // namespace rnr
