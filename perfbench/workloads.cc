/**
 * @file
 * The three benchmark workloads, their set-up, the traced run's layer
 * probe, and the metrics each run reports.  Every measurement is taken
 * from outside the simulator: around calls into the public functions of
 * src/workloads, src/ckpt, src/tracestore, src/harness, src/mem and
 * src/farm, plus the simulated counters those calls return.
 */
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "spans.h"

#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"
#include "farm/farm_client.h"
#include "harness/json_parse.h"
#include "harness/metrics.h"
#include "harness/result_cache.h"
#include "harness/runner.h"
#include "harness/scheduler.h"
#include "harness/sweep.h"
#include "mem/memory_system.h"
#include "prefetch/factory.h"
#include "sim/config.h"
#include "tracestore/trace_reader.h"
#include "tracestore/trace_store.h"

extern char **environ;

namespace perfbench {

using rnr::CellOutcome;
using rnr::ExperimentConfig;
using rnr::ExperimentResult;
using rnr::PrefetcherKind;

namespace {

/** Record iteration plus one replay iteration: the fewest that give
 *  RnR a replay, which keeps the zoo sweep inside a run's budget. */
constexpr unsigned kIterations = 2;

/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetups = 3;

ExperimentConfig
cellOf(const Pair &p, PrefetcherKind kind)
{
    ExperimentConfig c;
    c.app = p.app;
    c.input = p.input;
    c.prefetcher = kind;
    c.iterations = kIterations;
    return c;
}

std::string
label(const ExperimentConfig &c)
{
    return c.app + "/" + c.input + "/" + rnr::toString(c.prefetcher) +
           (c.ideal_llc ? "/ideal-llc" : "");
}

/** Threads for parallel work: nproc, capped at 4 so the workloads keep
 *  one shape (and a bounded memory footprint) on bigger hosts. */
unsigned
hostJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, 4u);
}

/** Runs fn(i) for every i in [0, n) on up to @p jobs threads and
 *  rethrows the first exception once all have joined. */
template <class Fn>
void
parallelFor(std::size_t n, unsigned jobs, Fn fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr err;
    auto worker = [&] {
        for (std::size_t i; (i = next++) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!err)
                    err = std::current_exception();
                return;
            }
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < std::min<std::size_t>(jobs, n); ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (err)
        std::rethrow_exception(err);
}

/** Runs fn(), records it as a span and returns its host seconds. */
template <class Fn>
double
timed(Spans &sp, const std::string &name, std::uint64_t parent, long cell,
      Fn &&fn, const std::string &detail = "")
{
    const double t0 = nowSec();
    fn();
    const double t1 = nowSec();
    sp.add(name, parent, cell, t0, t1, detail);
    return t1 - t0;
}

std::uint64_t
instructionsOf(const ExperimentResult &r)
{
    std::uint64_t n = 0;
    for (const rnr::IterStats &it : r.iterations)
        n += it.instructions;
    return n;
}

/** Entries in a result-cache file: one "key|value" line each. */
std::uint64_t
cacheEntries(const std::string &path)
{
    std::ifstream in(path);
    std::uint64_t n = 0;
    for (std::string line; std::getline(in, line);)
        n += line.find('|') != std::string::npos;
    return n;
}

/** Peak resident set (VmHWM) of process @p pid in bytes; 0 if gone. */
std::uint64_t
vmHwmBytes(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    return 0;
}

// ---- the farm daemon ----

/**
 * One rnr_farmd process serving from @p dir: its socket, result cache,
 * trace corpus and checkpoints all live there.  The daemon dies with
 * the benchmark (PR_SET_PDEATHSIG) and is drained, then reaped, by
 * stop() or the destructor.
 */
class Daemon
{
  public:
    Daemon(const std::string &exe, const std::string &dir, unsigned workers)
        : socket_(dir + "/farm.sock")
    {
        // Build argv and envp before fork: the child only calls
        // async-signal-safe functions.
        const std::string nworkers = std::to_string(workers);
        std::vector<std::string> env;
        for (char **e = environ; *e; ++e)
            if (std::string(*e).rfind("RNR_", 0) != 0)
                env.emplace_back(*e);
        env.emplace_back("RNR_TRACE_DIR=rnr_traces");
        env.emplace_back("RNR_CKPT_DIR=rnr_ckpt");
        env.emplace_back("RNR_CACHE_FILE=rnr_results.cache");
        env.emplace_back("RNR_LOG_LEVEL=warn");
        std::vector<char *> envp;
        for (std::string &s : env)
            envp.push_back(s.data());
        envp.push_back(nullptr);
        const char *argv[] = {exe.c_str(), "--socket", "farm.sock",
                              "--workers", nworkers.c_str(), nullptr};

        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            if (chdir(dir.c_str()) != 0)
                _exit(127);
            const int fd =
                open("farmd.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                dup2(fd, 1);
                dup2(fd, 2);
            }
            execve(exe.c_str(), const_cast<char *const *>(argv),
                   envp.data());
            _exit(127);
        }

        const double deadline = nowSec() + 30;
        while (nowSec() < deadline) {
            int st = 0;
            if (waitpid(pid_, &st, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("rnr_farmd exited during start-up; "
                                         "see " + dir + "/farmd.log");
            }
            rnr::FarmClient c;
            std::string err;
            if (c.connect(socket_, &err))
                return;
            usleep(5000);
        }
        stop();
        throw std::runtime_error("rnr_farmd did not listen within 30 s");
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

    /** Peak resident set of the daemon plus its worker processes. */
    std::uint64_t
    peakRssBytes() const
    {
        std::uint64_t sum = vmHwmBytes(pid_);
        std::ifstream in("/proc/" + std::to_string(pid_) + "/task/" +
                         std::to_string(pid_) + "/children");
        for (pid_t child; in >> child;)
            sum += vmHwmBytes(child);
        return sum;
    }

    /** Drains the daemon and waits for it; kills it after 10 s. */
    void
    stop()
    {
        if (pid_ < 0)
            return;
        {
            rnr::FarmClient c;
            std::string err;
            if (c.connect(socket_, &err))
                c.drain(&err);
        }
        const double deadline = nowSec() + 10;
        int st = 0;
        while (nowSec() < deadline) {
            if (waitpid(pid_, &st, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            usleep(5000);
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, &st, 0);
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** Counters of the daemon's rnr-metrics-v1 scrape. */
std::map<std::string, std::uint64_t>
scrapeCounters(rnr::FarmClient &c)
{
    std::string json, err;
    if (!c.metrics(json, &err))
        throw std::runtime_error("farm metrics scrape failed: " + err);
    rnr::JsonValue doc;
    if (!rnr::parseJson(json, doc, &err))
        throw std::runtime_error("farm metrics unparseable: " + err);
    std::map<std::string, std::uint64_t> out;
    if (const rnr::JsonValue *cs = doc.find("counters"))
        for (const auto &[name, v] : cs->members)
            out[name] = v.asU64();
    return out;
}

// ---- one timed phase ----

/** What one timed phase measured. */
struct Phase {
    double wall = 0;              ///< host seconds of the timed phase
    double sim_instructions = 0;  ///< instructions simulated ...
    double sim_seconds = 0;       ///< ... in this many host seconds
    std::vector<double> batch_ms; ///< one per blocking call
    /** Cells per second of round trip of each batch, when the
     *  workload rates its batches one by one (FarmMixed); cells_per_s
     *  is then their median. */
    std::vector<double> batch_rate;
    std::uint64_t attempted = 0;  ///< cells completed, passing or not
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few reasons
    /** One result per cell key: the cells the workload simulates. */
    std::map<std::string, ExperimentResult> distinct;
    std::uint64_t peak_rss = 0;

    // Layer data, filled by traced phases.
    std::vector<double> cell_s;  ///< per-cell host busy seconds
    double sched_idle_s = 0;     ///< jobs x wall - sum of cell busy
    std::vector<double> cell_latency_us;
    std::uint64_t cache_writes = 0, replays = 0, forks = 0;
    std::uint64_t queue_depth_max = 0;
    std::map<std::string, std::uint64_t> farm; ///< farm.* deltas

    void
    note(const std::string &why)
    {
        if (failures.size() < 5)
            failures.push_back(why);
    }

    /** Checks @p r; a key seen before must repeat its counters.  ""
     *  when it passes, else why not. */
    std::string
    check(const ExperimentResult &r)
    {
        const std::string key = r.config.key();
        std::string why = checkCell(r);
        auto it = distinct.find(key);
        if (it == distinct.end())
            distinct.emplace(key, r);
        else if (why.empty() && !sameCounters(it->second, r))
            why = "counters differ between runs of one cell";
        return why.empty() ? why : label(r.config) + ": " + why;
    }

    std::vector<ExperimentResult>
    results() const
    {
        std::vector<ExperimentResult> v;
        for (const auto &[key, r] : distinct)
            v.push_back(r);
        return v;
    }
};

/**
 * Runs @p cells through the in-process backend on @p jobs threads and
 * records one span per cell.  The backend calls back on the worker
 * thread that ran the cell, so each cell's busy interval runs from
 * that thread's previous completion to its own.  @p latency_us, when
 * given, receives each cell's latency from the batch's start.
 */
std::vector<CellOutcome>
runTracedBatch(const std::vector<ExperimentConfig> &cells,
               const std::vector<int> &priorities, unsigned jobs, Spans &sp,
               std::uint64_t parent, Phase &ph,
               std::vector<double> *latency_us)
{
    std::vector<CellOutcome> out(cells.size());
    std::mutex mu;
    std::map<std::thread::id, double> last_done;
    double busy = 0;
    const double t0 = nowSec();
    rnr::InProcessBackend backend(jobs);
    backend.run(cells, priorities, [&](std::size_t i, CellOutcome o) {
        const double t = nowSec();
        std::lock_guard<std::mutex> lock(mu);
        auto [it, fresh] =
            last_done.try_emplace(std::this_thread::get_id(), t0);
        const double start = it->second;
        it->second = t;
        sp.add("harness.cell", parent, static_cast<long>(i), start, t,
               label(cells[i]));
        busy += t - start;
        ph.cell_s.push_back(t - start);
        if (latency_us)
            latency_us->push_back((t - t0) * 1e6);
        out[i] = std::move(o);
    });
    const double wall = nowSec() - t0;
    const unsigned used =
        static_cast<unsigned>(std::min<std::size_t>(jobs, cells.size()));
    ph.sched_idle_s += used * wall - busy;
    return out;
}

// ---- the workloads ----

class Bench
{
  public:
    explicit Bench(const Options &o) : opts_(o), rng_(o.seed) {}
    virtual ~Bench() = default;

    /** App/input pairs whose traces set-up captures. */
    virtual std::vector<Pair> pairs() const = 0;
    /** The pair the traced run's layer probe replays. */
    virtual Pair probePair() const = 0;

    /** Set-up after the trace capture (the farm's daemon). */
    virtual void
    setupMore(const std::string &, Spans &, std::uint64_t)
    {
    }
    virtual void teardown() {}

    /** The timed phase: at least one unit of work, and more while the
     *  next one is predicted to end within @p seconds. */
    virtual Phase measure(const std::string &dir, double seconds,
                          Spans &sp, bool traced) = 0;

  protected:
    Options opts_;
    std::mt19937_64 rng_;
};

/**
 * replay-kernel: the worst-locality inputs, serially, result cache
 * off, traces captured in set-up — so the timed phase is trace-store
 * replay, the core model, the memory system and the RnR engine.  The
 * unit of work (a "batch") is one round of the 4 cells in seeded order.
 */
class ReplayKernel final : public Bench
{
  public:
    using Bench::Bench;

    std::vector<Pair>
    pairs() const override
    {
        return {{"pagerank", "urand"}, {"hyperanf", "urand"}};
    }

    /** The 4 cells of one round. */
    std::vector<ExperimentConfig>
    cells() const
    {
        std::vector<ExperimentConfig> v;
        for (const Pair &p : pairs())
            for (PrefetcherKind k :
                 {PrefetcherKind::None, PrefetcherKind::RnrCombined})
                v.push_back(cellOf(p, k));
        return v;
    }

    Pair probePair() const override { return pairs().front(); }

    Phase
    measure(const std::string &, double seconds, Spans &sp,
            bool) override
    {
        setenv("RNR_CACHE", "0", 1);
        Phase ph;
        std::vector<ExperimentConfig> order = cells();
        const std::uint64_t root = sp.begin("replay-kernel.timed");
        const std::uint64_t hits0 = rnr::TraceStore::instance().hits();
        const std::uint64_t forks0 =
            rnr::ckpt::CheckpointStore::instance().forks();
        const double t0 = nowSec();
        double last_round = 0;
        while (ph.attempted == 0 ||
               nowSec() - t0 + last_round <= seconds) {
            const double r0 = nowSec();
            std::shuffle(order.begin(), order.end(), rng_);
            for (const ExperimentConfig &cfg : order) {
                ExperimentResult r;
                std::string why;
                const double s = timed(
                    sp, "harness.cell", root,
                    static_cast<long>(ph.attempted), [&] {
                        try {
                            r = rnr::runExperimentUncached(cfg);
                        } catch (const std::exception &e) {
                            why = label(cfg) + ": " + e.what();
                        }
                    },
                    label(cfg));
                ++ph.attempted;
                ph.cell_s.push_back(s);
                ph.cell_latency_us.push_back(s * 1e6);
                if (why.empty()) {
                    ph.sim_instructions +=
                        static_cast<double>(instructionsOf(r));
                    why = ph.check(r);
                }
                if (!why.empty()) {
                    ++ph.failed;
                    ph.note(why);
                }
            }
            last_round = nowSec() - r0;
            ph.batch_ms.push_back(last_round * 1e3);
        }
        ph.wall = nowSec() - t0;
        sp.end(root);
        ph.sim_seconds = ph.wall;
        double busy = 0;
        for (double s : ph.cell_s)
            busy += s;
        ph.sched_idle_s = ph.wall - busy;
        ph.replays = rnr::TraceStore::instance().hits() - hits0;
        ph.forks = rnr::ckpt::CheckpointStore::instance().forks() - forks0;
        ph.peak_rss = rnr::hostPeakRssBytes();
        unsetenv("RNR_CACHE");
        return ph;
    }
};

/** Every Table III stand-in of the paper's evaluation. */
std::vector<Pair>
allPairs()
{
    std::vector<Pair> v;
    for (const char *in : {"urand", "amazon", "com-orkut", "roadUSA"}) {
        v.push_back({"pagerank", in});
        v.push_back({"hyperanf", in});
    }
    for (const char *in : {"atmosmodj", "bbmat", "nlpkkt80", "pdb1HYS"})
        v.push_back({"spcg", in});
    return v;
}

/**
 * zoo-sweep: all 12 app/input pairs under none, rnr, rnr-combined and
 * the heavy baselines, as one in-process sweep on a cold result cache.
 */
class ZooSweep final : public Bench
{
  public:
    explicit ZooSweep(const Options &o) : Bench(o)
    {
        order_ = cells();
        std::shuffle(order_.begin(), order_.end(), rng_);
        // Front-load the heavy baselines, as SweepRunner::add() suggests
        // for uneven matrices: the seed still orders cells within a
        // kind, but the makespan no longer hinges on whether it put a
        // 6-8 s MISB cell last.
        for (const ExperimentConfig &c : order_)
            prio_.push_back(c.prefetcher == PrefetcherKind::Misb    ? 4
                            : c.prefetcher == PrefetcherKind::Bingo ? 3
                            : c.prefetcher == PrefetcherKind::RnrCombined
                                ? 2
                            : c.prefetcher == PrefetcherKind::Rnr ? 1
                                                                  : 0);
    }

    std::vector<Pair> pairs() const override { return allPairs(); }

    /** The 60 cells of one sweep. */
    std::vector<ExperimentConfig>
    cells() const
    {
        std::vector<ExperimentConfig> v;
        for (const Pair &p : pairs())
            for (PrefetcherKind k :
                 {PrefetcherKind::None, PrefetcherKind::Rnr,
                  PrefetcherKind::RnrCombined, PrefetcherKind::Misb,
                  PrefetcherKind::Bingo})
                v.push_back(cellOf(p, k));
        return v;
    }

    Pair probePair() const override { return {"spcg", "atmosmodj"}; }

    Phase
    measure(const std::string &dir, double seconds, Spans &sp,
            bool traced) override
    {
        Phase ph;
        const unsigned jobs = hostJobs();
        const std::size_t n = order_.size();
        const double t0 = nowSec();
        double last = 0;
        for (unsigned k = 0; k == 0 || nowSec() - t0 + last <= seconds;
             ++k) {
            // A fresh cache file per sweep: every cell writes one entry.
            const std::string cache =
                dir + "/sweep" + std::to_string(k) + ".cache";
            setenv("RNR_CACHE_FILE", cache.c_str(), 1);
            rnr::ResultCache::instance().clearForTest();
            const std::uint64_t hits0 = rnr::TraceStore::instance().hits();
            const std::uint64_t forks0 =
                rnr::ckpt::CheckpointStore::instance().forks();

            std::vector<CellOutcome> outs(n);
            std::size_t simulated = 0;
            std::string sweep_error;
            const double s0 = nowSec();
            const std::uint64_t root = sp.begin("harness.sweep");
            try {
                if (traced) {
                    outs = runTracedBatch(order_, prio_, jobs, sp, root,
                                          ph, &ph.cell_latency_us);
                    for (const CellOutcome &o : outs)
                        simulated += !o.was_cached;
                } else {
                    rnr::SweepOptions so;
                    so.jobs = jobs;
                    so.progress = 0;
                    so.label = "zoo-sweep";
                    rnr::SweepRunner runner(so);
                    for (std::size_t i = 0; i < n; ++i)
                        runner.add(order_[i], prio_[i]);
                    std::vector<ExperimentResult> rs = runner.run();
                    for (std::size_t i = 0; i < n && i < rs.size(); ++i)
                        outs[i].result = std::move(rs[i]);
                    simulated = runner.stats().simulated;
                }
            } catch (const std::exception &e) {
                sweep_error = std::string("sweep failed: ") + e.what();
            }
            sp.end(root);
            last = nowSec() - s0;
            ph.batch_ms.push_back(last * 1e3);

            const std::uint64_t entries = cacheEntries(cache);
            ph.cache_writes += entries;
            ph.replays += rnr::TraceStore::instance().hits() - hits0;
            ph.forks +=
                rnr::ckpt::CheckpointStore::instance().forks() - forks0;
            if (sweep_error.empty() && simulated != n)
                sweep_error = "sweep simulated " +
                              std::to_string(simulated) + " of " +
                              std::to_string(n) + " cells";
            if (sweep_error.empty() && entries != n)
                sweep_error = "sweep wrote " + std::to_string(entries) +
                              " cache entries for " + std::to_string(n) +
                              " cells";

            std::uint64_t bad = 0;
            for (const CellOutcome &o : outs) {
                if (!sweep_error.empty())
                    break;
                ph.sim_instructions +=
                    static_cast<double>(instructionsOf(o.result));
                if (std::string why = ph.check(o.result); !why.empty()) {
                    ++bad;
                    ph.note(why);
                }
            }
            if (!sweep_error.empty()) {
                bad = n;
                ph.note(sweep_error);
            }
            ph.attempted += n;
            ph.failed += bad;
        }
        ph.wall = nowSec() - t0;
        ph.sim_seconds = ph.wall;
        ph.peak_rss = rnr::hostPeakRssBytes();
        return ph;
    }

  private:
    std::vector<ExperimentConfig> order_; ///< seeded cell order
    std::vector<int> prio_;               ///< scheduling priority of each
};

/**
 * farm-mixed: one client in a closed loop over one connection to
 * rnr_farmd, submitting 4-cell batches drawn from a cheap-cell matrix
 * (4 inputs x 4 prefetchers x real/ideal LLC).  Set-up pre-warms the
 * daemon's cache for all but a seeded minority of the cells; those
 * cold cells simulate on first use, between the cache-hit batches.
 */
class FarmMixed final : public Bench
{
  public:
    static constexpr std::size_t kBatch = 4;

    /** Cold cells: enough that the 11th-slowest batch (the tail) is
     *  one that simulated, yet few and cheap enough that waiting for
     *  them stays a small share of the run.  They arrive evenly spaced
     *  over the timed phase, so the tail samples the whole run rather
     *  than its first seconds. */
    static constexpr std::size_t kCold = 13;

    explicit FarmMixed(const Options &o) : Bench(o)
    {
        for (const Pair &p : pairs())
            for (PrefetcherKind k :
                 {PrefetcherKind::None, PrefetcherKind::Rnr,
                  PrefetcherKind::RnrCombined, PrefetcherKind::Bingo})
                for (bool ideal : {false, true}) {
                    matrix_.push_back(cellOf(p, k));
                    matrix_.back().ideal_llc = ideal;
                }
        // Cold cells come from the cheapest cells (none and rnr, on both
        // LLCs), so every seed's cold set costs about the same; the seed
        // picks which of those 16 start cold.
        cold_.assign(matrix_.size(), false);
        std::vector<std::size_t> cold;
        for (std::size_t p = 0; p < pairs().size(); ++p)
            for (std::size_t i = 0; i < 4; ++i)
                cold.push_back(p * 8 + i); // kinds none, rnr x both LLCs
        std::shuffle(cold.begin(), cold.end(), rng_);
        cold.resize(kCold);
        for (std::size_t i : cold)
            cold_[i] = true;
    }

    std::vector<Pair>
    pairs() const override
    {
        return {{"pagerank", "amazon"},
                {"hyperanf", "amazon"},
                {"hyperanf", "roadUSA"},
                {"spcg", "atmosmodj"}};
    }

    Pair probePair() const override { return {"spcg", "atmosmodj"}; }

    void
    setupMore(const std::string &dir, Spans &sp,
              std::uint64_t parent) override
    {
        const unsigned workers = std::max(1u, hostJobs() - 1);
        timed(sp, "farm.start", parent, -1, [&] {
            daemon_ = std::make_unique<Daemon>(opts_.farmd, dir, workers);
        });
        std::vector<ExperimentConfig> warm;
        for (std::size_t i = 0; i < matrix_.size(); ++i)
            if (!cold_[i])
                warm.push_back(matrix_[i]);
        timed(sp, "farm.prewarm", parent, -1, [&] {
            rnr::FarmClient c;
            std::string err;
            if (!c.connect(daemon_->socket(), &err) ||
                !c.submit(warm, {}, &err))
                throw std::runtime_error("pre-warm submit failed: " + err);
            for (rnr::FarmClient::Reply rep;;) {
                if (!c.next(rep, &err))
                    throw std::runtime_error("pre-warm failed: " + err);
                if (rep.batch_done)
                    break;
                if (rep.outcome.status != CellOutcome::Status::Done)
                    throw std::runtime_error("pre-warm cell poisoned: " +
                                             rep.outcome.error);
            }
        });
    }

    void teardown() override { daemon_.reset(); }

    Phase
    measure(const std::string &dir, double seconds, Spans &sp,
            bool traced) override
    {
        Phase ph;
        rnr::FarmClient c;
        std::string err;
        if (!c.connect(daemon_->socket(), &err))
            throw std::runtime_error("farm connect failed: " + err);
        const auto before = scrapeCounters(c);
        const std::uint64_t hits0 = rnr::TraceStore::instance().hits();
        const std::uint64_t forks0 =
            rnr::ckpt::CheckpointStore::instance().forks();
        const std::string cache = dir + "/rnr_results.cache";
        const std::uint64_t entries0 = cacheEntries(cache);

        // Queue depth comes from a second connection polling "status";
        // only the traced phase pays for it.
        std::atomic<bool> stop{false};
        std::atomic<std::uint64_t> depth_max{0};
        std::thread poller;
        if (traced)
            poller = std::thread([&] {
                rnr::FarmClient pc;
                std::string e;
                if (!pc.connect(daemon_->socket(), &e))
                    return;
                for (rnr::FarmStatus st; !stop && pc.status(st, &e);) {
                    std::uint64_t d = st.queued + st.inflight;
                    std::uint64_t m = depth_max.load();
                    while (d > m && !depth_max.compare_exchange_weak(m, d))
                        ;
                    usleep(2000);
                }
            });

        // Cells the daemon has cached: the pre-warmed ones, then each
        // cold cell once its batch is done.  Cold cell k (in seeded
        // order) rides in the first batch sent at or after
        // k * seconds / kCold, beside cached cells, so each costs exactly
        // one batch its worker dispatch, simulation and cache write.
        std::vector<std::size_t> ready, cold_left;
        for (std::size_t i = 0; i < matrix_.size(); ++i)
            (cold_[i] ? cold_left : ready).push_back(i);
        std::shuffle(cold_left.begin(), cold_left.end(), rng_);
        const double spacing = seconds / static_cast<double>(kCold);
        std::vector<std::size_t> idx;
        std::map<std::size_t, ExperimentResult> first;
        std::map<std::size_t, std::uint64_t> replies_of;
        std::set<std::size_t> cold_simulated;
        std::string loop_error;
        const std::uint64_t root = sp.begin("farm.timed");
        const double t0 = nowSec();
        while (loop_error.empty() && nowSec() - t0 < seconds) {
            const double tb = nowSec();
            const double sent =
                static_cast<double>(kCold - cold_left.size());
            const bool with_cold =
                !cold_left.empty() && tb - t0 >= sent * spacing;
            // Distinct cached cells (partial Fisher-Yates).
            const std::size_t cached = kBatch - with_cold;
            for (std::size_t i = 0; i < cached; ++i)
                std::swap(ready[i],
                          ready[i + rng_() % (ready.size() - i)]);
            idx.assign(ready.begin(), ready.begin() + cached);
            if (with_cold) {
                idx.push_back(cold_left.back());
                cold_left.pop_back();
            }
            std::vector<ExperimentConfig> batch;
            for (std::size_t i : idx)
                batch.push_back(matrix_[i]);

            const std::uint64_t bspan = sp.begin("farm.batch", root);
            if (!c.submit(batch, {}, &err)) {
                loop_error = "submit failed: " + err;
                break;
            }
            for (rnr::FarmClient::Reply rep;;) {
                if (!c.next(rep, &err)) {
                    loop_error = "reply failed: " + err;
                    break;
                }
                if (rep.batch_done)
                    break;
                const double t = nowSec();
                const std::size_t cell = idx[rep.index];
                sp.add("farm.cell", bspan, static_cast<long>(cell), tb, t,
                       label(matrix_[cell]));
                ph.cell_latency_us.push_back((t - tb) * 1e6);
                ++ph.attempted;
                ++replies_of[cell];
                auto f = first.find(cell);
                const std::string why = checkFarmReply(
                    rep.outcome, !cold_[cell],
                    f == first.end() ? nullptr : &f->second);
                if (!why.empty()) {
                    ++ph.failed;
                    ph.note(label(matrix_[cell]) + ": " + why);
                    continue;
                }
                if (f == first.end())
                    first.emplace(cell, rep.outcome.result);
                if (!rep.outcome.was_cached)
                    cold_simulated.insert(cell);
            }
            sp.end(bspan);
            const double rtt = nowSec() - tb;
            ph.batch_ms.push_back(rtt * 1e3);
            ph.batch_rate.push_back(static_cast<double>(idx.size()) / rtt);
            if (with_cold)
                ready.push_back(idx.back());
        }
        ph.wall = nowSec() - t0;
        sp.end(root);
        stop = true;
        if (poller.joinable())
            poller.join();
        if (!loop_error.empty())
            throw std::runtime_error("farm-mixed: " + loop_error);

        const auto after = scrapeCounters(c);
        auto delta = [&](const std::string &name) {
            auto a = after.find(name), b = before.find(name);
            return (a == after.end() ? 0 : a->second) -
                   (b == before.end() ? 0 : b->second);
        };
        ph.farm["cells_cached"] = delta("rnr_farm_cells_cached_total");
        ph.farm["cells_simulated"] =
            delta("rnr_farm_cells_simulated_total");
        ph.farm["retried"] = delta("rnr_farm_cells_retried_total");
        ph.farm["poisoned"] = delta("rnr_farm_cells_poisoned_total");
        ph.farm["frame_bytes_in"] = delta("rnr_farm_frame_bytes_in_total");
        ph.farm["frame_bytes_out"] =
            delta("rnr_farm_frame_bytes_out_total");
        // Worker processes keep their own registries, so the scrape
        // counts the daemon's share; the in-process reference adds its.
        ph.replays = delta("rnr_tracestore_replays_total");
        ph.forks = delta("rnr_ckpt_forks_total");
        ph.queue_depth_max = depth_max;
        ph.cache_writes = cacheEntries(cache) - entries0;
        ph.peak_rss = rnr::hostPeakRssBytes() + daemon_->peakRssBytes();

        // The pre-warmed share must not have simulated at all.
        if (ph.farm["cells_simulated"] != cold_simulated.size()) {
            ph.failed = ph.attempted;
            ph.note("farm simulated " +
                    std::to_string(ph.farm["cells_simulated"]) +
                    " cells but only " +
                    std::to_string(cold_simulated.size()) +
                    " cold cells were new");
        }

        // Reference: every matrix cell in-process, replaying the same
        // corpus with the result cache off.  Farm results must match,
        // and its rate is this workload's sim_mips: the few cold cells
        // the farm simulates are too uneven a sample to time.
        setenv("RNR_CACHE", "0", 1);
        rnr::ResultCache::instance().clearForTest();
        Spans off(false);
        const std::uint64_t ref = sp.begin("harness.reference");
        const double r0 = nowSec();
        std::vector<CellOutcome> outs = runTracedBatch(
            matrix_, {}, hostJobs(), traced ? sp : off, ref, ph, nullptr);
        ph.sim_seconds = nowSec() - r0;
        sp.end(ref);
        ph.replays += rnr::TraceStore::instance().hits() - hits0;
        ph.forks += rnr::ckpt::CheckpointStore::instance().forks() - forks0;
        unsetenv("RNR_CACHE");
        for (std::size_t i = 0; i < outs.size(); ++i) {
            ph.sim_instructions +=
                static_cast<double>(instructionsOf(outs[i].result));
            if (std::string why = ph.check(outs[i].result); !why.empty()) {
                ph.failed = ph.attempted;
                ph.note("in-process " + why);
            }
            auto f = first.find(i);
            if (f != first.end() &&
                !sameCounters(f->second, outs[i].result)) {
                ph.failed += replies_of[i];
                ph.note(label(matrix_[i]) +
                        ": farm counters differ from in-process");
            }
        }
        ph.failed = std::min(ph.failed, ph.attempted);
        return ph;
    }

  private:
    std::vector<ExperimentConfig> matrix_;
    std::vector<bool> cold_;
    std::unique_ptr<Daemon> daemon_;
};

std::unique_ptr<Bench>
makeBench(const Options &o)
{
    if (o.workload == "replay-kernel")
        return std::make_unique<ReplayKernel>(o);
    if (o.workload == "zoo-sweep")
        return std::make_unique<ZooSweep>(o);
    if (o.workload == "farm-mixed")
        return std::make_unique<FarmMixed>(o);
    throw std::invalid_argument("unknown workload: " + o.workload);
}

// ---- the traced run's layer probe ----

/** Layer costs measured in isolation on the workload's probe pair. */
struct Probe {
    double fork_s = 0;        ///< fork every input of the workload once
    double decode_mrec_s = 0; ///< StreamingTraceReader drain rate
    double demand_mops = 0;   ///< MemorySystem::demandAccess rate
    std::map<PrefetcherKind, double> cell_s; ///< serial, uncached
    std::vector<ExperimentResult> cells;
    double cache_hit_us = 0;  ///< runExperiment() on a cached key
};

Probe
runProbe(const Bench &b, const std::string &dir, Spans &sp)
{
    Probe pr;
    const std::uint64_t root = sp.begin("probe");
    for (const Pair &p : b.pairs()) {
        const ExperimentConfig cfg = cellOf(p, PrefetcherKind::None);
        pr.fork_s += timed(sp, "ckpt.fork", root, -1, [&] {
            if (p.app == "spcg")
                (void)rnr::ckpt::forkMatrixInput(cfg);
            else
                (void)rnr::ckpt::forkGraphInput(cfg);
        });
    }

    const ExperimentConfig none = cellOf(b.probePair(), PrefetcherKind::None);
    rnr::TraceStore::Entry entry;
    if (rnr::TraceStore::instance().acquire(none.workloadKey(), entry) !=
        rnr::TraceStore::Acquire::Hit)
        throw std::runtime_error("probe trace missing from the corpus");

    // Drain the replay iteration of every core.
    std::vector<double> rates;
    std::vector<rnr::TraceRecord> ops;
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t n = 0;
        const double s = timed(sp, "tracestore.decode", root, -1, [&] {
            for (unsigned c = 0; c < none.cores; ++c) {
                rnr::StreamingTraceReader rd;
                if (rnr::TraceIoResult r = rd.open(entry.tracePath(1, c)); !r)
                    throw std::runtime_error(r.message());
                std::size_t got = 0;
                while (const rnr::TraceRecord *blk = rd.takeBlock(got)) {
                    n += got;
                    for (std::size_t i = 0;
                         rep == 0 && c == 0 && i < got && ops.size() < (1u << 20);
                         ++i)
                        if (blk[i].kind != rnr::RecordKind::Control)
                            ops.push_back(blk[i]);
                }
                if (rd.error())
                    throw std::runtime_error(rd.errorResult().message());
            }
        });
        rates.push_back(static_cast<double>(n) / s / 1e6);
    }
    pr.decode_mrec_s = median(rates);

    // Core 0's replay-iteration memory operations straight into a
    // one-core memory system, as bench/micro_hotpath does.
    rates.clear();
    for (int rep = 0; rep < 3; ++rep) {
        rnr::MachineConfig mcfg = rnr::MachineConfig::scaledDefault();
        mcfg.cores = 1;
        rnr::MemorySystem ms(mcfg);
        std::unique_ptr<rnr::Prefetcher> pf =
            rnr::createPrefetcher(PrefetcherKind::None);
        ms.setPrefetcher(0, pf.get());
        rnr::Tick now = 0, sink = 0;
        const double s = timed(sp, "mem.demand_access", root, -1, [&] {
            for (const rnr::TraceRecord &rec : ops) {
                now += 1 + rec.gap / 4;
                sink ^= ms.demandAccess(0, rec.addr,
                                        rec.kind == rnr::RecordKind::Store,
                                        rec.pc, now)
                            .done;
            }
        });
        if (sink == 1)
            std::fputc(' ', stderr); // keep the loop observable
        rates.push_back(static_cast<double>(ops.size()) / s / 1e6);
    }
    pr.demand_mops = median(rates);

    // Cells differenced against none on the same trace: three
    // interleaved rounds, median per kind, so host drift hits every
    // kind alike.
    const std::map<PrefetcherKind, std::string> span_of = {
        {PrefetcherKind::None, "cpu.cell"},
        {PrefetcherKind::Rnr, "core.rnr.cell"},
        {PrefetcherKind::Misb, "prefetch.misb.cell"},
        {PrefetcherKind::Bingo, "prefetch.bingo.cell"}};
    std::map<PrefetcherKind, std::vector<double>> secs;
    for (int rep = 0; rep < 3; ++rep)
        for (const auto &[kind, name] : span_of) {
            const ExperimentConfig cfg = cellOf(b.probePair(), kind);
            ExperimentResult r;
            secs[kind].push_back(timed(
                sp, name, root, -1,
                [&] { r = rnr::runExperimentUncached(cfg); }, label(cfg)));
            if (rep == 0)
                pr.cells.push_back(std::move(r));
        }
    for (const auto &[kind, v] : secs)
        pr.cell_s[kind] = median(v);

    // The result-cache hit path: runExperiment() on a stored key.
    setenv("RNR_CACHE_FILE", (dir + "/probe.cache").c_str(), 1);
    rnr::ResultCache::instance().clearForTest();
    for (const ExperimentResult &r : pr.cells)
        if (r.config.key() == none.key())
            rnr::ResultCache::instance().store(none.key(), r);
    std::vector<double> hit_us;
    for (int i = 0; i < 200; ++i) {
        bool cached = false;
        const double s = timed(sp, "harness.cache_hit", root, -1, [&] {
            (void)rnr::runExperiment(none, &cached);
        });
        if (!cached)
            throw std::runtime_error("probe cache lookup missed");
        hit_us.push_back(s * 1e6);
    }
    pr.cache_hit_us = median(hit_us);
    sp.end(root);
    return pr;
}

// ---- metrics ----

const char *const kPaperNote =
    "paper: 2.11x PageRank, 2.23x Hyper-ANF, 2.90x spCG";

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

/** End-to-end metrics of @p ph, in BENCHMARK.json order. */
std::vector<Metric>
endToEnd(const Phase &ph, const std::vector<double> &setups, Tail *tail)
{
    const Modelled m = modelledMetrics(ph.results());
    *tail = tailOf(ph.batch_ms);
    return {
        {"setup_s", median(setups), "s"},
        {"sim_mips",
         ph.sim_seconds > 0 ? ph.sim_instructions / ph.sim_seconds / 1e6
                            : 0,
         "MIPS"},
        {"cells_per_s",
         !ph.batch_rate.empty() ? median(ph.batch_rate)
         : ph.wall > 0          ? ph.attempted / ph.wall
                                : 0,
         "cells/s"},
        {"batch_ms_p50", median(ph.batch_ms), "ms"},
        {"batch_ms_tail", tail->value, "ms"},
        {"peak_rss_mb", static_cast<double>(ph.peak_rss) / 1e6, "MB"},
        {"ok_frac",
         ph.attempted ? 1.0 - static_cast<double>(ph.failed) /
                                  static_cast<double>(ph.attempted)
                      : 0,
         "ratio"},
        {"rnr_speedup", m.speedup, "x"},
        {"rnr_coverage", m.coverage, "ratio"},
        {"rnr_accuracy", m.accuracy, "ratio"},
        {"offchip_ratio", m.offchip, "ratio"},
        {"paper_err", m.paper_err, "ratio"},
    };
}

/** Which clock each end-to-end metric reads (README.md). */
const std::map<std::string, std::string> kClock = {
    {"setup_s", "host"},          {"sim_mips", "host"},
    {"cells_per_s", "host"},      {"batch_ms_p50", "host"},
    {"batch_ms_tail", "host"},    {"peak_rss_mb", "host memory"},
    {"ok_frac", "checks"},        {"rnr_speedup", "simulated"},
    {"rnr_coverage", "simulated"}, {"rnr_accuracy", "simulated"},
    {"offchip_ratio", "simulated"}, {"paper_err", "simulated"},
};

void
addLines(Outcome &o, const std::string &tag, const std::vector<Metric> &ms,
         const Tail &tail, const Phase &ph)
{
    for (const Metric &m : ms) {
        std::string line = "  " + tag + m.name;
        line.resize(std::max<std::size_t>(line.size(), 24), ' ');
        line += fmt("%14.6g ", m.value) + m.unit + "  [" +
                kClock.at(m.name) + "]";
        if (m.name == "batch_ms_tail")
            line += fmt("  p%.2f", tail.percentile) + " of " +
                    std::to_string(tail.samples) + " samples";
        if (m.name == "cells_per_s" && !ph.batch_rate.empty())
            line += fmt("  median of batches; whole phase %.6g",
                        ph.wall > 0 ? ph.attempted / ph.wall : 0);
        if (m.name == "ok_frac")
            line += "  fail_frac " +
                    fmt("%.6g", ph.attempted
                                    ? static_cast<double>(ph.failed) /
                                          static_cast<double>(ph.attempted)
                                    : 0) +
                    " (" + std::to_string(ph.failed) + "/" +
                    std::to_string(ph.attempted) + ")";
        if (m.name == "paper_err")
            line += std::string("  ") + kPaperNote;
        o.lines.push_back(line);
    }
    for (const std::string &why : ph.failures)
        o.lines.push_back("  " + tag + "FAILED: " + why);
}

/** Per-layer metrics of a traced run (README.md has the layer map). */
std::vector<Metric>
perLayer(const Corpus &corpus, const Phase &ph, const Probe &pr)
{
    std::vector<Metric> v;
    auto add = [&](const std::string &n, double x, const std::string &u) {
        v.push_back({n, x, u});
    };
    auto count = [&](const std::string &n, std::uint64_t x) {
        add(n, static_cast<double>(x), "count");
    };

    add("workloads.gen_s", corpus.gen_s, "s");
    add("workloads.emit_s", corpus.emit_s, "s");
    count("workloads.records", corpus.records);

    add("ckpt.fork_s", pr.fork_s, "s");
    count("ckpt.forks", ph.forks);

    add("tracestore.capture_s", corpus.capture_s, "s");
    add("tracestore.raw_bytes", static_cast<double>(corpus.raw_bytes),
        "bytes");
    add("tracestore.stored_bytes",
        static_cast<double>(corpus.stored_bytes), "bytes");
    add("tracestore.decode_mrec_s", pr.decode_mrec_s, "Mrec/s");
    count("tracestore.captures", corpus.captures);
    count("tracestore.replays", ph.replays);

    rnr::IterStats sum;
    rnr::IterStats rnr_sum;
    std::uint64_t seq_bytes = 0;
    for (const auto &[key, r] : ph.distinct) {
        const bool is_rnr = r.config.prefetcher == PrefetcherKind::Rnr ||
                            r.config.prefetcher == PrefetcherKind::RnrCombined;
        if (is_rnr)
            seq_bytes += r.seq_table_bytes;
        for (const rnr::IterStats &it : r.iterations) {
#define PERFBENCH_SUM(type, name)                                           \
    sum.name += it.name;                                                    \
    if (is_rnr)                                                             \
        rnr_sum.name += it.name;
            RNR_ITER_STAT_FIELDS(PERFBENCH_SUM)
#undef PERFBENCH_SUM
        }
    }
    add("mem.demand_mops", pr.demand_mops, "Mops/s");
    count("mem.l2_accesses", sum.l2_accesses);
    count("mem.l2_demand_misses", sum.l2_demand_misses);
    auto bytes = [&](const std::string &n, std::uint64_t x) {
        add(n, static_cast<double>(x), "bytes");
    };
    bytes("mem.dram_bytes_total", sum.dram_bytes_total);
    bytes("mem.dram_bytes_demand", sum.dram_bytes_demand);
    bytes("mem.dram_bytes_prefetch", sum.dram_bytes_prefetch);
    bytes("mem.dram_bytes_metadata", sum.dram_bytes_metadata);
    bytes("mem.dram_bytes_writeback", sum.dram_bytes_writeback);

    const double none_s = pr.cell_s.at(PrefetcherKind::None);
    add("cpu.none_cell_s", none_s, "s");
    add("cpu.cycles", static_cast<double>(sum.cycles), "cycles");
    count("cpu.instructions", sum.instructions);

    // Prefetcher counts over every distinct cell of that kind the run
    // simulated: the workload's and the probe's.
    std::map<std::string, const ExperimentResult *> all;
    for (const auto &[key, r] : ph.distinct)
        all.emplace(key, &r);
    for (const ExperimentResult &r : pr.cells)
        all.emplace(r.config.key(), &r);
    for (PrefetcherKind kind : {PrefetcherKind::Misb, PrefetcherKind::Bingo}) {
        const std::string p = "prefetch." + rnr::toString(kind) + ".";
        std::uint64_t issued = 0, useful = 0;
        for (const auto &[key, r] : all)
            if (r->config.prefetcher == kind)
                for (const rnr::IterStats &it : r->iterations) {
                    issued += it.pf_issued;
                    useful += rnr::usefulPrefetches(it);
                }
        add(p + "extra_s", pr.cell_s.at(kind) - none_s, "s");
        count(p + "issued", issued);
        count(p + "useful", useful);
        add(p + "useful_ratio",
            issued ? static_cast<double>(useful) / static_cast<double>(issued)
                   : 0,
            "ratio");
    }

    add("core.rnr.extra_s", pr.cell_s.at(PrefetcherKind::Rnr) - none_s, "s");
    count("core.rnr.recorded", rnr_sum.rnr_recorded);
    count("core.rnr.ontime", rnr_sum.rnr_ontime);
    count("core.rnr.early", rnr_sum.rnr_early);
    count("core.rnr.late", rnr_sum.rnr_late);
    count("core.rnr.out_of_window", rnr_sum.rnr_out_of_window);
    add("core.rnr.seq_table_bytes", static_cast<double>(seq_bytes), "bytes");

    add("harness.cell_s_p50", median(ph.cell_s), "s");
    add("harness.cell_s_max",
        ph.cell_s.empty() ? 0
                          : *std::max_element(ph.cell_s.begin(),
                                              ph.cell_s.end()),
        "s");
    add("harness.sched_idle_s", ph.sched_idle_s, "s");
    add("harness.cache_hit_us", pr.cache_hit_us, "us");
    count("harness.cache_writes", ph.cache_writes);

    const Tail lat = tailOf(ph.cell_latency_us);
    add("farm.cell_latency_us_p50", median(ph.cell_latency_us), "us");
    add("farm.cell_latency_us_tail", lat.value, "us");
    count("farm.queue_depth_max", ph.queue_depth_max);
    for (const char *n : {"cells_cached", "cells_simulated", "retried",
                          "poisoned"}) {
        auto it = ph.farm.find(n);
        count(std::string("farm.") + n, it == ph.farm.end() ? 0 : it->second);
    }
    for (const char *n : {"frame_bytes_in", "frame_bytes_out"}) {
        auto it = ph.farm.find(n);
        add(std::string("farm.") + n,
            static_cast<double>(it == ph.farm.end() ? 0 : it->second),
            "bytes");
    }

    const Tail bt = tailOf(ph.batch_ms);
    count("batch.samples", bt.samples);
    add("batch.tail_pct", bt.percentile, "%");
    return v;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "replay-kernel", "zoo-sweep", "farm-mixed"};
    return names;
}

void
pointStoresAt(const std::string &dir)
{
    setenv("RNR_TRACE_DIR", (dir + "/rnr_traces").c_str(), 1);
    setenv("RNR_CKPT_DIR", (dir + "/rnr_ckpt").c_str(), 1);
    setenv("RNR_CACHE_FILE", (dir + "/rnr_results.cache").c_str(), 1);
    rnr::TraceStore::instance().resetForTest();
    rnr::ckpt::CheckpointStore::instance().resetForTest();
    rnr::ckpt::resetInputForkForTest();
    rnr::ResultCache::instance().clearForTest();
}

Corpus
captureCorpus(const std::vector<Pair> &pairs, Spans &sp,
              std::uint64_t parent)
{
    rnr::TraceStore &store = rnr::TraceStore::instance();
    std::mutex mu;
    Corpus out;
    parallelFor(pairs.size(), hostJobs(), [&](std::size_t i) {
        const ExperimentConfig cfg = cellOf(pairs[i], PrefetcherKind::None);
        const long cell = static_cast<long>(i);
        std::unique_ptr<rnr::Workload> wl;
        const double gen = timed(sp, "workloads.generate", parent, cell,
                                 [&] { wl = rnr::makeWorkload(cfg); });

        const std::string wkey = cfg.workloadKey();
        rnr::TraceStore::Entry entry;
        if (store.acquire(wkey, entry) != rnr::TraceStore::Acquire::Owner)
            throw std::runtime_error("fresh trace store already holds " +
                                     wkey);
        rnr::TraceStore::Capture cap =
            store.beginCapture(wkey, cfg.iterations, cfg.cores);
        std::vector<rnr::TraceBuffer> bufs(cfg.cores);
        double emit = 0, capture = 0;
        std::uint64_t records = 0;
        for (unsigned it = 0; it < cfg.iterations; ++it) {
            emit += timed(sp, "workloads.emit", parent, cell, [&] {
                wl->emitIteration(it, it + 1 == cfg.iterations, bufs);
            });
            for (const rnr::TraceBuffer &b : bufs)
                records += b.size();
            capture += timed(sp, "tracestore.capture", parent, cell, [&] {
                for (unsigned c = 0; c < cfg.cores; ++c)
                    if (rnr::TraceIoResult r = cap.add(it, c, bufs[c]); !r)
                        throw std::runtime_error("trace capture failed: " +
                                                 r.message());
            });
        }
        bool published = false;
        capture += timed(sp, "tracestore.publish", parent, cell, [&] {
            published = cap.publish(wl->inputBytes(), wl->targetBytes());
        });
        if (!published)
            throw std::runtime_error("trace publish failed: " + wkey);

        std::lock_guard<std::mutex> lock(mu);
        out.gen_s += gen;
        out.emit_s += emit;
        out.capture_s += capture;
        out.records += records;
    });
    for (const rnr::TraceStore::Entry &e : store.listEntries()) {
        out.raw_bytes += e.raw_bytes;
        out.stored_bytes += e.stored_bytes;
    }
    out.captures = store.captures();
    return out;
}

Outcome
runBenchmark(const Options &opts)
{
    std::unique_ptr<Bench> bench = makeBench(opts);
    Spans sp(opts.trace);
    Spans off(false);

    // A traced run alternates untraced and traced set-ups and ends with
    // one untraced and one traced timed phase, each half as long, so
    // tracing overhead is a same-run difference.
    const unsigned setups = opts.trace ? kSetups + 1 : kSetups;
    std::vector<double> setup_s[2];
    Phase phase[2];
    Corpus corpus;
    Probe probe;
    for (unsigned k = 0; k < setups; ++k) {
        const bool traced = opts.trace && k % 2 == 1;
        Spans &s = traced ? sp : off;
        const std::string dir = "s" + std::to_string(k);
        std::filesystem::create_directories(dir);

        const double t0 = nowSec();
        const std::uint64_t root = s.begin("setup");
        pointStoresAt(dir);
        Corpus c = captureCorpus(bench->pairs(), s, root);
        bench->setupMore(dir, s, root);
        s.end(root);
        setup_s[traced].push_back(nowSec() - t0);
        if (traced)
            corpus = c;

        const bool last = k + 1 == setups;
        if (last || (opts.trace && k + 2 == setups)) {
            const double secs = opts.trace ? opts.seconds / 2 : opts.seconds;
            phase[traced] = bench->measure(dir, secs, s, traced);
            if (traced)
                probe = runProbe(*bench, dir, s);
        }
        bench->teardown();
        std::filesystem::remove_all(dir);
    }

    Outcome o;
    const Phase &main_phase = phase[opts.trace ? 1 : 0];
    o.attempted = phase[0].attempted + phase[1].attempted;
    o.failed = phase[0].failed + phase[1].failed;

    Tail tail[2];
    const std::vector<Metric> e2e =
        endToEnd(phase[0], setup_s[0], &tail[0]);
    o.lines.push_back("perfbench " + opts.workload + " seed " +
                      std::to_string(opts.seed) + ", " +
                      fmt("%g", opts.seconds) + " s, " +
                      (opts.trace ? "traced" : "untraced") + " run");
    addLines(o, opts.trace ? "untraced " : "", e2e, tail[0], phase[0]);
    if (!opts.trace) {
        o.metrics = e2e;
    } else {
        const std::vector<Metric> e2e_traced =
            endToEnd(phase[1], setup_s[1], &tail[1]);
        addLines(o, "traced   ", e2e_traced, tail[1], phase[1]);
        o.metrics = perLayer(corpus, main_phase, probe);
        for (std::size_t i = 0; i < e2e.size(); ++i) {
            const double u = e2e[i].value, t = e2e_traced[i].value;
            o.metrics.push_back({"overhead." + e2e[i].name,
                                 u != 0 ? t / u - 1 : 0, "ratio"});
        }
        if (!sp.write(opts.spans_out))
            throw std::runtime_error("cannot write spans to " +
                                     opts.spans_out);
        o.lines.push_back("spans: " + std::to_string(sp.all().size()) +
                          " written to " + opts.spans_out);
    }

    const std::uint64_t digest = counterDigest(main_phase.results());
    o.lines.push_back("counter_digest " + opts.workload + " " + hex(digest) +
                      " (" + std::to_string(main_phase.distinct.size()) +
                      " cells)");
    if (opts.trace && counterDigest(phase[0].results()) != digest) {
        o.failed = o.attempted;
        o.lines.push_back("FAILED: traced and untraced counters differ");
    }
    o.correct = o.failed == 0 && o.attempted > 0;
    return o;
}

} // namespace perfbench
