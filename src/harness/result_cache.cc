#include "harness/result_cache.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "harness/file_lock.h"
#include "harness/publish.h"
#include "obs/metrics.h"

namespace rnr {

namespace {

// Null when RNR_METRICS=0 — the shared "free when off" gate.
struct CacheMetrics {
    obs::Counter *hits;
    obs::Counter *misses;
    obs::Counter *merges;
    CacheMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        hits = reg.counter("rnr_cache_hits_total");
        misses = reg.counter("rnr_cache_misses_total");
        merges = reg.counter("rnr_cache_merges_total");
    }
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics m;
    return m;
}

} // namespace

ResultCache &
ResultCache::instance()
{
    static ResultCache cache;
    return cache;
}

std::string
ResultCache::serialize(const ExperimentResult &r)
{
    std::ostringstream os;
    os << r.input_bytes << " " << r.target_bytes << " "
       << r.seq_table_bytes << " " << r.div_table_bytes << " "
       << r.iterations.size();
    // Field order comes from the X-macro: the single source of truth
    // shared with IterStats itself, so codec and struct cannot drift.
    for (const IterStats &it : r.iterations) {
#define RNR_WRITE_FIELD(type, name) os << " " << it.name;
        RNR_ITER_STAT_FIELDS(RNR_WRITE_FIELD)
#undef RNR_WRITE_FIELD
    }
    return os.str();
}

bool
ResultCache::deserialize(const std::string &value, ExperimentResult &r)
{
    std::istringstream is(value);
    std::size_t n = 0;
    if (!(is >> r.input_bytes >> r.target_bytes >> r.seq_table_bytes >>
          r.div_table_bytes >> n))
        return false;
    r.iterations.clear();
    for (std::size_t i = 0; i < n; ++i) {
        IterStats it;
        bool ok = true;
#define RNR_READ_FIELD(type, name)                                          \
        ok = ok && static_cast<bool>(is >> it.name);
        RNR_ITER_STAT_FIELDS(RNR_READ_FIELD)
#undef RNR_READ_FIELD
        if (!ok)
            return false;
        r.iterations.push_back(it);
    }
    return !r.iterations.empty();
}

std::string
ResultCache::filePath()
{
    if (const char *p = std::getenv("RNR_CACHE_FILE"))
        return p;
    return "rnr_results.cache";
}

bool
ResultCache::persistenceEnabled()
{
    const char *p = std::getenv("RNR_CACHE");
    return !(p && std::string(p) == "0");
}

void
ResultCache::ensureLoadedLocked()
{
    const std::string path = persistenceEnabled() ? filePath() : "";
    if (loaded_ && path == loaded_path_)
        return;
    lines_.clear();
    corrupt_lines_ = 0;
    loaded_path_ = path;
    loaded_ = true;
    if (path.empty())
        return;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto bar = line.find('|');
        if (bar == std::string::npos) {
            ++corrupt_lines_;
            continue;
        }
        // Validate now so a truncated write never poisons a lookup.
        ExperimentResult probe;
        if (!deserialize(line.substr(bar + 1), probe)) {
            ++corrupt_lines_;
            continue;
        }
        lines_[line.substr(0, bar)] = line.substr(bar + 1);
    }
}

void
ResultCache::mergeFromDiskLocked()
{
    std::ifstream in(loaded_path_);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto bar = line.find('|');
        if (bar == std::string::npos)
            continue;
        std::string key = line.substr(0, bar);
        if (lines_.count(key))
            continue; // ours wins (results are deterministic anyway)
        ExperimentResult probe;
        std::string value = line.substr(bar + 1);
        if (deserialize(value, probe))
            lines_.emplace(std::move(key), std::move(value));
    }
}

void
ResultCache::rewriteFileLocked()
{
    if (loaded_path_.empty())
        return;
    // Serialise concurrent *processes* (farm workers, a warm daemon)
    // through a sidecar flock, and fold in whatever they published
    // since we loaded, so a whole-file rewrite never drops their lines.
    // The lock degrades to a no-op where unsupported — then we are back
    // to the single-process guarantee, which the rename still provides.
    FileLock lock(loaded_path_ + ".lock", FileLock::Mode::Block);
    if (lock.held())
        mergeFromDiskLocked();

    std::string content;
    for (const auto &[key, value] : lines_) {
        content += key;
        content += '|';
        content += value;
        content += '\n';
    }
    // An unwritable location is not fatal: keep going without
    // persistence (the memo still serves this process).
    publishFile(loaded_path_, content);
}

bool
ResultCache::lookup(const ExperimentConfig &cfg, ExperimentResult &out)
{
    const std::string key = cfg.key();
    std::lock_guard<std::mutex> lock(mu_);
    auto mit = memo_.find(key);
    if (mit != memo_.end()) {
        if (obs::Counter *c = cacheMetrics().hits)
            c->add();
        out = mit->second;
        return true;
    }
    ensureLoadedLocked();
    auto fit = lines_.find(key);
    if (fit == lines_.end()) {
        if (obs::Counter *c = cacheMetrics().misses)
            c->add();
        return false;
    }
    ExperimentResult r;
    r.config = cfg;
    if (!deserialize(fit->second, r)) {
        if (obs::Counter *c = cacheMetrics().misses)
            c->add();
        return false; // pre-validated at load, but stay defensive
    }
    memo_[key] = r;
    if (obs::Counter *c = cacheMetrics().hits)
        c->add();
    out = r;
    return true;
}

void
ResultCache::store(const std::string &key, const ExperimentResult &r)
{
    std::lock_guard<std::mutex> lock(mu_);
    memo_[key] = r;
    ensureLoadedLocked();
    if (loaded_path_.empty())
        return;
    lines_[key] = serialize(r);
    rewriteFileLocked();
}

void
ResultCache::noteExternal(const std::string &key,
                          const ExperimentResult &r)
{
    std::lock_guard<std::mutex> lock(mu_);
    memo_[key] = r;
    if (obs::Counter *c = cacheMetrics().merges)
        c->add();
}

std::size_t
ResultCache::corruptLinesSkipped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return corrupt_lines_;
}

void
ResultCache::clearForTest()
{
    std::lock_guard<std::mutex> lock(mu_);
    memo_.clear();
    lines_.clear();
    loaded_path_.clear();
    loaded_ = false;
    corrupt_lines_ = 0;
}

} // namespace rnr
