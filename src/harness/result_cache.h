/**
 * @file
 * Thread-safe experiment result cache (in-process memo + file persistence).
 *
 * The cache has two layers, both keyed by ExperimentConfig::key():
 *
 *  1. an in-process memo (mutex-guarded map) that makes repeated
 *     runExperiment() calls within one binary free, and
 *  2. an optional on-disk text file (one "key|value" line per result,
 *     see docs/HARNESS.md for the exact field order) shared by every
 *     bench binary run from the same working directory.
 *
 * File persistence is crash- and concurrency-safe: every store rewrites
 * the whole file through publishFile (harness/publish.h), so readers
 * never observe a torn line and a worker killed mid-publish leaves the
 * previous file intact.  Cross-process, the rewrite holds an advisory
 * flock on "<path>.lock" (harness/file_lock.h) and re-merges the
 * on-disk file first, so concurrent farm workers append to, never
 * clobber, each other's results.  The loader tolerates corrupt lines:
 * anything that does not parse (including a torn final line from a
 * pre-fsync crash) is counted and skipped, never fatal.
 *
 * Environment:
 *   RNR_CACHE=0            disable file persistence (memo still active)
 *   RNR_CACHE_FILE=<path>  move the file (default "rnr_results.cache")
 */
#ifndef RNR_HARNESS_RESULT_CACHE_H
#define RNR_HARNESS_RESULT_CACHE_H

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "harness/experiment.h"

namespace rnr {

/** Process-wide, thread-safe two-layer result cache. */
class ResultCache
{
  public:
    /** The process-wide instance used by runExperiment(). */
    static ResultCache &instance();

    /**
     * Looks @p cfg up in the memo, then in the file cache.  On a hit
     * fills @p out (with out.config = cfg) and returns true.
     */
    bool lookup(const ExperimentConfig &cfg, ExperimentResult &out);

    /** Memoises @p r and, if persistence is enabled, rewrites the file. */
    void store(const std::string &key, const ExperimentResult &r);

    /**
     * Memo-only store for a result another *process* already persisted
     * (a farm worker's, streamed back to the daemon): later lookups hit
     * without re-reading the file, and the file — which that worker
     * just rewrote under its flock — is not redundantly rewritten.
     */
    void noteExternal(const std::string &key, const ExperimentResult &r);

    /** Lines skipped by the loader because they failed to parse. */
    std::size_t corruptLinesSkipped() const;

    /**
     * Drops the memo and any loaded file state so the next lookup
     * re-reads $RNR_CACHE / $RNR_CACHE_FILE.  Tests that repoint the
     * cache file mid-process must call this; production code never
     * needs to.
     */
    void clearForTest();

    // -- serialisation (exposed for tests and the JSON exporter) --

    /** One cache line's value part: space-separated decimal fields. */
    static std::string serialize(const ExperimentResult &r);

    /** Parses a value part; returns false (partial @p r) on corruption. */
    static bool deserialize(const std::string &value, ExperimentResult &r);

    /** Current cache file path ($RNR_CACHE_FILE or rnr_results.cache). */
    static std::string filePath();

    /** False iff $RNR_CACHE is exactly "0". */
    static bool persistenceEnabled();

  private:
    ResultCache() = default;

    /** (Re)loads the file into lines_ if the target path changed. */
    void ensureLoadedLocked();
    /** Folds lines other processes published since we loaded into
     *  lines_ (existing keys win); called under the file lock. */
    void mergeFromDiskLocked();
    void rewriteFileLocked();

    mutable std::mutex mu_;
    std::map<std::string, ExperimentResult> memo_;
    std::map<std::string, std::string> lines_; ///< key -> serialized value
    std::string loaded_path_;                  ///< "" = nothing loaded yet
    bool loaded_ = false;
    std::size_t corrupt_lines_ = 0;
};

} // namespace rnr

#endif // RNR_HARNESS_RESULT_CACHE_H
