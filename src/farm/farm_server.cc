#include "farm/farm_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#ifndef _WIN32
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "farm/farm_protocol.h"
#include "farm/farm_worker.h"
#include "harness/json_write.h"
#include "harness/result_cache.h"
#include "harness/scheduler.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace rnr {

namespace {

double
envDouble(const char *name, double fallback)
{
    if (const char *p = std::getenv(name)) {
        const double v = std::strtod(p, nullptr);
        if (v > 0)
            return v;
    }
    return fallback;
}

unsigned
envUnsigned(const char *name, unsigned fallback)
{
    if (const char *p = std::getenv(name)) {
        const long v = std::strtol(p, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return fallback;
}

} // namespace

FarmOptions
FarmOptions::fromEnv()
{
    FarmOptions o;
    if (const char *p = std::getenv("RNR_FARM_SOCKET"))
        o.socket_path = p;
    if (o.socket_path.empty())
        o.socket_path = "rnr_farm.sock";
    o.workers = envUnsigned("RNR_FARM_WORKERS", 2);
    o.timeout_sec = envDouble("RNR_FARM_TIMEOUT_SEC", 300.0);
    return o;
}

#ifndef _WIN32

namespace {

using Clock = std::chrono::steady_clock;

/** Hard cap on worker respawns, against an exec-failure storm. */
constexpr unsigned kMaxRespawns = 100;

struct Worker {
    pid_t pid = -1;
    int fd = -1;
    std::uint64_t cell = 0; ///< 0 = idle
    Clock::time_point deadline{};
    Clock::time_point dispatched{}; ///< when `cell` was written out
    FrameBuffer rx;
    bool dead = false; ///< permanently (respawn cap hit)
};

struct Client {
    int fd = -1;
    FrameBuffer rx;
    std::uint64_t outstanding = 0; ///< results owed before batch-done
    std::uint64_t batch_poisoned = 0;
    bool gone = false;
};

struct Cell {
    std::uint64_t id = 0;
    ExperimentConfig cfg;
    std::string key;
    int attempts = 0;
    /** Correlation directory from a traced submit; "" = untraced. */
    std::string trace_dir;
    /** (client fd, client-side batch index) pairs to notify. */
    std::vector<std::pair<int, std::uint64_t>> subs;
};

/** Null when RNR_METRICS=0 — the shared "free when off" gate.  The
 *  counters deliberately mirror FarmTotals bump-for-bump so a scraped
 *  snapshot reconciles exactly with the `status` reply and the sweep
 *  JSON (tests/farm/farm_obs_test.cc asserts the equality). */
struct FarmMetrics {
    obs::Counter *cells_done;
    obs::Counter *cells_simulated;
    obs::Counter *cells_cached;
    obs::Counter *cells_poisoned;
    obs::Counter *cells_retried;
    obs::Counter *worker_spawns;
    obs::Counter *worker_deaths;
    obs::Counter *worker_respawns;
    obs::Counter *bytes_in;
    obs::Counter *bytes_out;
    obs::Gauge *queue_depth;
    obs::Gauge *inflight;
    obs::Histogram *cell_latency_us;
    FarmMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        cells_done = reg.counter("rnr_farm_cells_done_total");
        cells_simulated = reg.counter("rnr_farm_cells_simulated_total");
        cells_cached = reg.counter("rnr_farm_cells_cached_total");
        cells_poisoned = reg.counter("rnr_farm_cells_poisoned_total");
        cells_retried = reg.counter("rnr_farm_cells_retried_total");
        worker_spawns = reg.counter("rnr_farm_worker_spawns_total");
        worker_deaths = reg.counter("rnr_farm_worker_deaths_total");
        worker_respawns = reg.counter("rnr_farm_worker_respawns_total");
        bytes_in = reg.counter("rnr_farm_frame_bytes_in_total");
        bytes_out = reg.counter("rnr_farm_frame_bytes_out_total");
        queue_depth = reg.gauge("rnr_farm_queue_depth");
        inflight = reg.gauge("rnr_farm_inflight");
        cell_latency_us = reg.histogram("rnr_farm_cell_latency_us");
    }
};

FarmMetrics &
farmMetrics()
{
    static FarmMetrics m;
    return m;
}

/** farmWriteFrame plus bytes-out accounting (4-byte header + payload). */
bool
writeFrameCounted(int fd, const std::string &payload)
{
    if (obs::Counter *c = farmMetrics().bytes_out)
        c->add(payload.size() + 4);
    return farmWriteFrame(fd, payload);
}

/**
 * Appends one daemon-side span event to <trace_dir>/daemon_spans.jsonl.
 * Open-append-close per event is fine here: the daemon is single-
 * threaded and span recording only happens on traced submits.  The
 * wall-clock "t_us" field is what `trace_tools farm trace` uses to
 * derive queue-wait and exec durations.
 */
void
spanEvent(const Cell &cell, const char *ev, int worker = -1,
          bool cached = false, const std::string &note = "")
{
    if (cell.trace_dir.empty())
        return;
    std::ostringstream os;
    os << "{\"ev\": " << jsonQuote(ev)
       << ", \"span\": " << jsonU64(cell.id)
       << ", \"key\": " << jsonQuote(cell.key)
       << ", \"attempt\": " << cell.attempts
       << ", \"t_us\": " << jsonU64(obs::logWallClockUs());
    if (worker >= 0)
        os << ", \"worker\": " << worker;
    if (cached)
        os << ", \"cached\": true";
    if (!note.empty())
        os << ", \"note\": " << jsonQuote(note);
    os << "}";
    std::FILE *f = std::fopen(
        (cell.trace_dir + "/daemon_spans.jsonl").c_str(), "a");
    if (f) {
        std::fprintf(f, "%s\n", os.str().c_str());
        std::fclose(f);
    }
}

std::string
resultFrame(std::uint64_t index, const char *status, bool cached,
            int attempts, const std::string &data,
            const std::string &error)
{
    std::ostringstream os;
    os << "{\"type\": \"result\", \"index\": " << jsonU64(index)
       << ", \"status\": \"" << status << "\", \"cached\": "
       << jsonBool(cached) << ", \"attempts\": " << attempts
       << ", \"data\": " << jsonQuote(data) << ", \"error\": "
       << jsonQuote(error) << "}";
    return os.str();
}

} // namespace

struct FarmServer::Impl {
    FarmServer *self = nullptr;
    int listen_fd = -1;
    int wake_r = -1;
    std::vector<Worker> workers;
    std::map<int, Client> clients; ///< by fd
    std::map<std::uint64_t, Cell> cells;
    std::map<std::string, std::uint64_t> active_by_key;
    std::map<std::string, std::string> poisoned; ///< key -> error
    ShardedWorkQueue *queue = nullptr;
    std::uint64_t next_cell_id = 1;
    unsigned respawns = 0;
    bool draining = false;
    std::vector<int> drain_fds;

    FarmTotals &totals() { return self->totals_; }
    const FarmOptions &opts() { return self->opts_; }

    bool spawnWorker(Worker &w, std::string *error);
    void killWorker(Worker &w);
    void handleWorkerDeath(Worker &w, const std::string &reason);
    void retryOrPoison(std::uint64_t cell_id, const std::string &reason);
    void deliver(const Cell &cell, const char *status, bool cached,
                 int attempts, const std::string &data,
                 const std::string &error);
    void finishCell(std::uint64_t cell_id, bool cached,
                    const std::string &data, int worker);
    void pump();
    void handleWorkerFrame(Worker &w, const std::string &payload);
    void handleClientFrame(Client &c, const std::string &payload);
    void dropClient(int fd);
    void submitOne(Client &c, std::uint64_t index,
                   const ExperimentConfig &cfg, int priority,
                   const std::string &trace_dir);
    void maybeBatchDone(Client &c);
    void maybeDrainDone();
};

bool
FarmServer::Impl::spawnWorker(Worker &w, std::string *error)
{
    if (respawns >= kMaxRespawns) {
        w.dead = true;
        if (error)
            *error = "worker respawn cap reached";
        return false;
    }
    const std::string exe = farmSelfExePath();
    if (exe.empty()) {
        if (error)
            *error = "cannot resolve own executable path";
        return false;
    }
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        if (error)
            *error = std::string("socketpair: ") + std::strerror(errno);
        return false;
    }
    ++respawns;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        if (error)
            *error = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        // Child: exec ourselves in worker mode on the other socket end.
        ::close(sv[0]);
        ::fcntl(sv[1], F_SETFD, 0); // must survive the exec
        const std::string fd_arg = std::to_string(sv[1]);
        ::execl(exe.c_str(), exe.c_str(), kFarmWorkerArg, fd_arg.c_str(),
                static_cast<char *>(nullptr));
        std::_Exit(127);
    }
    ::close(sv[1]);
    // Daemon-side end must NOT leak into sibling workers on respawn.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    w.pid = pid;
    w.fd = sv[0];
    w.cell = 0;
    w.rx = FrameBuffer();
    w.dead = false;
    if (obs::Counter *c = farmMetrics().worker_spawns)
        c->add();
    return true;
}

void
FarmServer::Impl::killWorker(Worker &w)
{
    if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        int st = 0;
        while (::waitpid(w.pid, &st, 0) < 0 && errno == EINTR) {
        }
    }
    if (w.fd >= 0)
        ::close(w.fd);
    w.pid = -1;
    w.fd = -1;
}

void
FarmServer::Impl::deliver(const Cell &cell, const char *status,
                          bool cached, int attempts,
                          const std::string &data,
                          const std::string &error)
{
    for (const auto &[fd, index] : cell.subs) {
        auto it = clients.find(fd);
        if (it == clients.end() || it->second.gone)
            continue;
        Client &c = it->second;
        if (!writeFrameCounted(fd, resultFrame(index, status, cached,
                                               attempts, data, error))) {
            c.gone = true;
            continue;
        }
        if (std::strcmp(status, "poisoned") == 0)
            ++c.batch_poisoned;
        if (c.outstanding > 0)
            --c.outstanding;
        maybeBatchDone(c);
    }
}

void
FarmServer::Impl::maybeBatchDone(Client &c)
{
    if (c.gone || c.outstanding != 0)
        return;
    std::ostringstream os;
    os << "{\"type\": \"batch-done\", \"poisoned\": "
       << jsonU64(c.batch_poisoned) << "}";
    if (!writeFrameCounted(c.fd, os.str()))
        c.gone = true;
    c.batch_poisoned = 0;
}

void
FarmServer::Impl::retryOrPoison(std::uint64_t cell_id,
                                const std::string &reason)
{
    auto it = cells.find(cell_id);
    if (it == cells.end())
        return;
    Cell &cell = it->second;
    if (cell.attempts < 2) {
        // One more chance, counted so tests can assert exactly one.
        ++totals().retried;
        if (obs::Counter *c = farmMetrics().cells_retried)
            c->add();
        spanEvent(cell, "retry", -1, false, reason);
        queue->push(cell_id);
        return;
    }
    totals().poisoned++;
    totals().done++;
    if (obs::Counter *c = farmMetrics().cells_poisoned)
        c->add();
    if (obs::Counter *c = farmMetrics().cells_done)
        c->add();
    poisoned[cell.key] = reason;
    obs::LogLine(obs::LogLevel::Warn, "farm")
        .msg("poisoned cell")
        .kv("cell", cell.key)
        .kv("attempts", cell.attempts)
        .kv("why", reason);
    spanEvent(cell, "poison", -1, false, reason);
    deliver(cell, "poisoned", false, cell.attempts, "", reason);
    active_by_key.erase(cell.key);
    cells.erase(it);
}

void
FarmServer::Impl::finishCell(std::uint64_t cell_id, bool cached,
                             const std::string &data, int worker)
{
    auto it = cells.find(cell_id);
    if (it == cells.end())
        return;
    Cell &cell = it->second;
    totals().done++;
    ++(cached ? totals().cached : totals().simulated);
    if (obs::Counter *c = farmMetrics().cells_done)
        c->add();
    if (obs::Counter *c = cached ? farmMetrics().cells_cached
                                 : farmMetrics().cells_simulated)
        c->add();
    spanEvent(cell, "done", worker, cached);
    // Memoize in the daemon's own cache so later submissions (and a
    // status-quo restart from the persisted file) are warm.
    ExperimentResult r;
    r.config = cell.cfg;
    if (farmParseResultData(data, r))
        ResultCache::instance().noteExternal(cell.key, r);
    deliver(cell, "done", cached, cell.attempts, data, "");
    active_by_key.erase(cell.key);
    cells.erase(it);
}

void
FarmServer::Impl::handleWorkerDeath(Worker &w, const std::string &reason)
{
    totals().worker_deaths++;
    if (obs::Counter *c = farmMetrics().worker_deaths)
        c->add();
    const int widx = static_cast<int>(&w - workers.data());
    obs::LogLine(obs::LogLevel::Warn, "farm")
        .msg("worker death")
        .kv("worker", widx)
        .kv("pid", static_cast<std::int64_t>(w.pid))
        .kv("why", reason);
    const std::uint64_t cell = w.cell;
    killWorker(w);
    w.cell = 0;
    if (cell != 0) {
        auto cit = cells.find(cell);
        if (cit != cells.end())
            spanEvent(cit->second, "worker-death", widx, false, reason);
        retryOrPoison(cell, reason);
    }
    std::string err;
    if (!spawnWorker(w, &err)) {
        obs::LogLine(obs::LogLevel::Error, "farm")
            .msg("cannot respawn worker")
            .kv("worker", widx)
            .kv("why", err);
        w.dead = true;
        // If every worker is gone, nothing will ever run again: fail
        // the whole backlog explicitly rather than hanging clients.
        if (std::all_of(workers.begin(), workers.end(),
                        [](const Worker &x) { return x.dead; })) {
            std::size_t id;
            for (unsigned s = 0; s < queue->shards(); ++s)
                while (queue->tryPop(s, id)) {
                    auto it = cells.find(id);
                    if (it != cells.end())
                        it->second.attempts = 2;
                    retryOrPoison(id, "no live workers");
                }
        }
    } else if (obs::Counter *c = farmMetrics().worker_respawns) {
        c->add();
    }
}

void
FarmServer::Impl::pump()
{
    for (std::size_t i = 0; i < workers.size(); ++i) {
        Worker &w = workers[i];
        if (w.dead || w.fd < 0 || w.cell != 0)
            continue;
        std::size_t id;
        if (!queue->tryPop(static_cast<unsigned>(i), id))
            continue;
        auto it = cells.find(id);
        if (it == cells.end())
            continue;
        Cell &cell = it->second;
        ++cell.attempts;
        std::ostringstream os;
        os << "{\"type\": \"cell\", \"id\": " << jsonU64(id)
           << ", \"config\": " << farmConfigJson(cell.cfg);
        if (!cell.trace_dir.empty())
            os << ", \"span\": " << jsonU64(id)
               << ", \"trace_dir\": " << jsonQuote(cell.trace_dir);
        os << "}";
        // Assign before writing so a failed write retries this cell
        // through the normal death path instead of losing it.
        w.cell = id;
        w.dispatched = Clock::now();
        spanEvent(cell, "dispatch", static_cast<int>(i));
        if (!writeFrameCounted(w.fd, os.str())) {
            handleWorkerDeath(w, "worker write failed");
            continue;
        }
        w.deadline = w.dispatched + std::chrono::duration_cast<
                                        Clock::duration>(
                         std::chrono::duration<double>(
                             opts().timeout_sec));
    }
}

void
FarmServer::Impl::handleWorkerFrame(Worker &w, const std::string &payload)
{
    JsonValue msg;
    std::string err;
    if (!parseJson(payload, msg, &err)) {
        handleWorkerDeath(w, "bad worker frame: " + err);
        return;
    }
    const JsonValue *type = msg.find("type");
    const std::string t = type ? type->text : "";
    const JsonValue *id_v = msg.find("id");
    const std::uint64_t id = id_v ? id_v->asU64() : 0;
    if (id != w.cell || id == 0) {
        handleWorkerDeath(w, "worker replied for unexpected cell");
        return;
    }
    // Per-attempt dispatch-to-reply latency, whatever the outcome.
    if (obs::Histogram *h = farmMetrics().cell_latency_us)
        h->observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - w.dispatched)
                .count()));
    const int widx = static_cast<int>(&w - workers.data());
    if (t == "cell-done") {
        const JsonValue *cached = msg.find("cached");
        const JsonValue *data = msg.find("data");
        w.cell = 0;
        finishCell(id, cached && cached->boolean,
                   data ? data->text : "", widx);
    } else if (t == "cell-error") {
        // A clean C++ exception is deterministic (bad config, missing
        // input): poison immediately, no point burning a retry.
        const JsonValue *m = msg.find("message");
        w.cell = 0;
        auto it = cells.find(id);
        if (it != cells.end())
            it->second.attempts = 2;
        retryOrPoison(id, m ? m->text : "worker exception");
    } else {
        handleWorkerDeath(w, "unexpected worker message '" + t + "'");
    }
}

void
FarmServer::Impl::submitOne(Client &c, std::uint64_t index,
                            const ExperimentConfig &cfg, int priority,
                            const std::string &trace_dir)
{
    const std::string key = cfg.key();

    auto pit = poisoned.find(key);
    if (pit != poisoned.end()) {
        // Known-bad cell: answer from the poison record, don't re-run.
        if (!writeFrameCounted(c.fd, resultFrame(index, "poisoned",
                                                 false, 0, "",
                                                 pit->second)))
            c.gone = true;
        else
            ++c.batch_poisoned;
        return;
    }

    // Traced submits skip the cache shortcut on purpose: a hit would
    // answer with counters but no worker ever runs, so there would be
    // nothing to put on the merged timeline (mirrors how
    // runExperimentInstrumented always simulates).
    ExperimentResult hit;
    if (trace_dir.empty() && ResultCache::instance().lookup(cfg, hit)) {
        totals().done++;
        totals().cached++;
        if (obs::Counter *mc = farmMetrics().cells_done)
            mc->add();
        if (obs::Counter *mc = farmMetrics().cells_cached)
            mc->add();
        if (!writeFrameCounted(c.fd,
                               resultFrame(index, "done", true, 0,
                                           farmResultData(hit), "")))
            c.gone = true;
        return;
    }

    ++c.outstanding;
    auto ait = active_by_key.find(key);
    if (ait != active_by_key.end()) {
        // Same cell already queued/in flight (this batch or another
        // client's): subscribe instead of re-running — the cross-
        // process analogue of SweepRunner's dedup.
        cells[ait->second].subs.emplace_back(c.fd, index);
        return;
    }

    const std::uint64_t id = next_cell_id++;
    Cell cell;
    cell.id = id;
    cell.cfg = cfg;
    cell.key = key;
    cell.trace_dir = trace_dir;
    cell.subs.emplace_back(c.fd, index);
    spanEvent(cell, "submit");
    cells.emplace(id, std::move(cell));
    active_by_key.emplace(key, id);
    queue->push(id, priority);
}

void
FarmServer::Impl::handleClientFrame(Client &c, const std::string &payload)
{
    JsonValue msg;
    std::string err;
    auto sendError = [&](const std::string &code,
                         const std::string &message) {
        std::ostringstream os;
        os << "{\"type\": \"error\", \"code\": " << jsonQuote(code)
           << ", \"message\": " << jsonQuote(message) << "}";
        if (!writeFrameCounted(c.fd, os.str()))
            c.gone = true;
    };
    if (!parseJson(payload, msg, &err)) {
        sendError("bad-frame", err);
        return;
    }
    const JsonValue *type = msg.find("type");
    const std::string t = type ? type->text : "";

    if (t == "hello") {
        const JsonValue *proto = msg.find("protocol");
        if (!proto || proto->text != kFarmProtocol) {
            sendError("bad-protocol",
                      "expected " + std::string(kFarmProtocol));
            return;
        }
        std::ostringstream os;
        os << "{\"type\": \"hello\", \"protocol\": \"" << kFarmProtocol
           << "\", \"workers\": " << workers.size() << "}";
        if (!writeFrameCounted(c.fd, os.str()))
            c.gone = true;
    } else if (t == "submit") {
        if (draining) {
            sendError("draining", "daemon is draining");
            return;
        }
        const JsonValue *cells_v = msg.find("cells");
        if (!cells_v || !cells_v->isArray()) {
            sendError("bad-submit", "missing cells array");
            return;
        }
        std::string trace_dir;
        if (const JsonValue *td = msg.find("trace_dir"))
            trace_dir = td->text;
        for (std::size_t i = 0; i < cells_v->items.size(); ++i) {
            const JsonValue &cv = cells_v->items[i];
            ExperimentConfig cfg;
            if (!farmParseConfig(cv, cfg, &err)) {
                sendError("bad-config",
                          "cell " + std::to_string(i) + ": " + err);
                return;
            }
            int priority = 0;
            if (const JsonValue *p = cv.find("priority"))
                priority = static_cast<int>(p->asDouble());
            submitOne(c, i, cfg, priority, trace_dir);
            if (c.gone)
                return;
        }
        maybeBatchDone(c); // fully-cached batches finish synchronously
        pump();
    } else if (t == "status") {
        unsigned live = 0, busy = 0;
        for (const Worker &w : workers) {
            if (!w.dead && w.fd >= 0)
                ++live;
            if (w.cell != 0)
                ++busy;
        }
        std::ostringstream os;
        os << "{\"type\": \"status-reply\", \"workers\": " << live
           << ", \"busy\": " << busy
           << ", \"queued\": " << jsonU64(queue->pending())
           << ", \"inflight\": " << busy
           << ", \"done\": " << jsonU64(totals().done)
           << ", \"simulated\": " << jsonU64(totals().simulated)
           << ", \"cached\": " << jsonU64(totals().cached)
           << ", \"poisoned\": " << jsonU64(totals().poisoned)
           << ", \"retried\": " << jsonU64(totals().retried)
           << ", \"worker_deaths\": " << jsonU64(totals().worker_deaths)
           << ", \"draining\": " << jsonBool(draining) << "}";
        if (!writeFrameCounted(c.fd, os.str()))
            c.gone = true;
    } else if (t == "metrics") {
        // Refresh the point-in-time gauges so the scrape is coherent
        // with the counters it travels with.
        unsigned busy = 0;
        for (const Worker &w : workers)
            if (w.cell != 0)
                ++busy;
        if (obs::Gauge *g = farmMetrics().queue_depth)
            g->set(static_cast<std::int64_t>(queue->pending()));
        if (obs::Gauge *g = farmMetrics().inflight)
            g->set(busy);
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::instance().snapshot();
        const JsonValue *fmt = msg.find("format");
        std::ostringstream os;
        if (fmt && fmt->text == "prometheus")
            os << "{\"type\": \"metrics-reply\", \"text\": "
               << jsonQuote(obs::metricsPrometheusTextFrom(snap)) << "}";
        else
            os << "{\"type\": \"metrics-reply\", \"metrics\": "
               << obs::metricsJsonFrom(snap) << "}";
        if (!writeFrameCounted(c.fd, os.str()))
            c.gone = true;
    } else if (t == "drain") {
        draining = true;
        drain_fds.push_back(c.fd);
        maybeDrainDone();
    } else {
        sendError("bad-type", "unknown message '" + t + "'");
    }
}

void
FarmServer::Impl::maybeDrainDone()
{
    if (!draining || queue->pending() > 0)
        return;
    for (const Worker &w : workers)
        if (w.cell != 0)
            return;
    for (int fd : drain_fds)
        writeFrameCounted(fd, "{\"type\": \"drain-ok\"}");
    drain_fds.clear();
    self->requestStop();
}

void
FarmServer::Impl::dropClient(int fd)
{
    clients.erase(fd);
    ::close(fd);
    // Unsubscribe everywhere; orphaned cells still run (they warm the
    // cache for the client's retry).
    for (auto &[id, cell] : cells)
        cell.subs.erase(std::remove_if(cell.subs.begin(),
                                       cell.subs.end(),
                                       [fd](const auto &s) {
                                           return s.first == fd;
                                       }),
                        cell.subs.end());
    drain_fds.erase(std::remove(drain_fds.begin(), drain_fds.end(), fd),
                    drain_fds.end());
}

FarmServer::FarmServer(FarmOptions opts) : opts_(std::move(opts))
{
    if (opts_.socket_path.empty() || opts_.workers == 0 ||
        opts_.timeout_sec <= 0) {
        const FarmOptions env = FarmOptions::fromEnv();
        if (opts_.socket_path.empty())
            opts_.socket_path = env.socket_path;
        if (opts_.workers == 0)
            opts_.workers = env.workers;
        if (opts_.timeout_sec <= 0)
            opts_.timeout_sec = env.timeout_sec;
    }
}

FarmServer::~FarmServer()
{
    if (!impl_)
        return;
    for (Worker &w : impl_->workers)
        impl_->killWorker(w);
    for (auto &[fd, c] : impl_->clients)
        ::close(fd);
    if (impl_->listen_fd >= 0)
        ::close(impl_->listen_fd);
    if (impl_->wake_r >= 0)
        ::close(impl_->wake_r);
    if (wake_w_ >= 0)
        ::close(wake_w_);
    ::unlink(opts_.socket_path.c_str());
    delete impl_->queue;
    delete impl_;
}

bool
FarmServer::start(std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what + ": " + std::strerror(errno);
        return false;
    };

    std::signal(SIGPIPE, SIG_IGN);

    const std::string &path = opts_.socket_path;
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + path;
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return fail("socket");

    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (errno != EADDRINUSE) {
            ::close(fd);
            return fail("bind " + path);
        }
        // Stale socket from a killed daemon, or a live one?  Probe.
        const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC,
                                   0);
        const bool live =
            probe >= 0 &&
            ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
        if (probe >= 0)
            ::close(probe);
        if (live) {
            ::close(fd);
            if (error)
                *error = "a daemon is already listening on " + path;
            return false;
        }
        ::unlink(path.c_str());
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(fd);
            return fail("bind " + path);
        }
    }
    if (::listen(fd, 16) != 0) {
        ::close(fd);
        ::unlink(path.c_str());
        return fail("listen");
    }

    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        ::close(fd);
        ::unlink(path.c_str());
        return fail("pipe");
    }
    ::fcntl(pipefd[0], F_SETFL, O_NONBLOCK);
    ::fcntl(pipefd[1], F_SETFL, O_NONBLOCK);
    ::fcntl(pipefd[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(pipefd[1], F_SETFD, FD_CLOEXEC);

    impl_ = new Impl();
    impl_->self = this;
    impl_->listen_fd = fd;
    impl_->wake_r = pipefd[0];
    wake_w_ = pipefd[1];
    impl_->queue = new ShardedWorkQueue(opts_.workers);
    impl_->workers.resize(opts_.workers);
    for (Worker &w : impl_->workers) {
        std::string err;
        if (!impl_->spawnWorker(w, &err)) {
            if (error)
                *error = "spawn worker: " + err;
            return false;
        }
    }
    return true;
}

void
FarmServer::requestStop()
{
    stop_.store(true);
    if (wake_w_ >= 0) {
        const char b = 'x';
        // Best-effort wake; the pipe being full already wakes the loop.
        (void)!::write(wake_w_, &b, 1);
    }
}

std::vector<int>
FarmServer::workerPids() const
{
    std::vector<int> pids;
    if (impl_)
        for (const Worker &w : impl_->workers)
            if (w.pid > 0)
                pids.push_back(static_cast<int>(w.pid));
    return pids;
}

int
FarmServer::serve()
{
    if (!impl_)
        return 1;
    Impl &im = *impl_;
    char buf[65536];

    while (!stop_.load()) {
        im.pump();
        im.maybeDrainDone();
        {
            unsigned busy = 0;
            for (const Worker &w : im.workers)
                if (w.cell != 0)
                    ++busy;
            if (obs::Gauge *g = farmMetrics().queue_depth)
                g->set(static_cast<std::int64_t>(im.queue->pending()));
            if (obs::Gauge *g = farmMetrics().inflight)
                g->set(busy);
        }
        if (stop_.load())
            break;

        std::vector<pollfd> pfds;
        pfds.push_back({im.listen_fd, POLLIN, 0});
        pfds.push_back({im.wake_r, POLLIN, 0});
        std::vector<std::size_t> worker_at(im.workers.size(), SIZE_MAX);
        for (std::size_t i = 0; i < im.workers.size(); ++i)
            if (!im.workers[i].dead && im.workers[i].fd >= 0) {
                worker_at[i] = pfds.size();
                pfds.push_back({im.workers[i].fd, POLLIN, 0});
            }
        const std::size_t clients_from = pfds.size();
        std::vector<int> client_fds;
        for (const auto &[fd, c] : im.clients) {
            client_fds.push_back(fd);
            pfds.push_back({fd, POLLIN, 0});
        }

        // Wake for the nearest busy-worker deadline.
        int timeout_ms = -1;
        const auto now = Clock::now();
        for (const Worker &w : im.workers)
            if (w.cell != 0) {
                const auto left =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        w.deadline - now)
                        .count();
                const int ms =
                    left < 0 ? 0
                             : static_cast<int>(
                                   std::min<long long>(left, 60000)) +
                                   10;
                if (timeout_ms < 0 || ms < timeout_ms)
                    timeout_ms = ms;
            }

        int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return 1;
        }

        // Expired deadlines: the worker is presumed hung.
        const auto after = Clock::now();
        for (Worker &w : im.workers)
            if (w.cell != 0 && after >= w.deadline)
                im.handleWorkerDeath(w, "cell timed out after " +
                                            std::to_string(
                                                opts_.timeout_sec) +
                                            "s");

        if (pfds[1].revents & POLLIN)
            while (::read(im.wake_r, buf, sizeof(buf)) > 0) {
            }

        if (pfds[0].revents & POLLIN) {
            // One accept per wakeup: poll is level-triggered, so a
            // second pending connection just wakes us again.
            const int cfd = ::accept(im.listen_fd, nullptr, nullptr);
            if (cfd >= 0) {
                ::fcntl(cfd, F_SETFD, FD_CLOEXEC);
                Client c;
                c.fd = cfd;
                im.clients.emplace(cfd, std::move(c));
            }
        }

        for (std::size_t i = 0; i < im.workers.size(); ++i) {
            const std::size_t at = worker_at[i];
            if (at == SIZE_MAX || !(pfds[at].revents & (POLLIN | POLLHUP |
                                                        POLLERR)))
                continue;
            Worker &w = im.workers[i];
            if (w.fd != pfds[at].fd)
                continue; // already respawned this iteration
            const ssize_t n = ::read(w.fd, buf, sizeof(buf));
            if (n <= 0) {
                if (n < 0 && (errno == EINTR || errno == EAGAIN))
                    continue;
                im.handleWorkerDeath(w, "worker died (crash?)");
                continue;
            }
            if (obs::Counter *bc = farmMetrics().bytes_in)
                bc->add(static_cast<std::uint64_t>(n));
            w.rx.feed(buf, static_cast<std::size_t>(n));
            std::string payload;
            while (w.fd >= 0 && w.rx.next(payload))
                im.handleWorkerFrame(w, payload);
            if (!w.rx.error().empty())
                im.handleWorkerDeath(w, w.rx.error());
        }

        for (std::size_t j = 0; j < client_fds.size(); ++j) {
            const pollfd &p = pfds[clients_from + j];
            if (!(p.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            auto it = im.clients.find(client_fds[j]);
            if (it == im.clients.end())
                continue;
            Client &c = it->second;
            const ssize_t n = ::read(c.fd, buf, sizeof(buf));
            if (n <= 0) {
                if (n < 0 && (errno == EINTR || errno == EAGAIN))
                    continue;
                im.dropClient(c.fd);
                continue;
            }
            if (obs::Counter *bc = farmMetrics().bytes_in)
                bc->add(static_cast<std::uint64_t>(n));
            c.rx.feed(buf, static_cast<std::size_t>(n));
            std::string payload;
            while (!c.gone && c.rx.next(payload))
                im.handleClientFrame(c, payload);
            if (c.gone || !c.rx.error().empty())
                im.dropClient(client_fds[j]);
        }
    }

    // Clean exit: quit the workers (SIGKILL in killWorker is the
    // backstop for ones mid-cell).
    for (Worker &w : im.workers) {
        if (w.fd >= 0)
            writeFrameCounted(w.fd, "{\"type\": \"quit\"}");
        im.killWorker(w);
    }
    return 0;
}

#else // _WIN32 stubs: the farm is POSIX-only.

struct FarmServer::Impl {};

FarmServer::FarmServer(FarmOptions opts) : opts_(std::move(opts)) {}
FarmServer::~FarmServer() = default;

bool
FarmServer::start(std::string *error)
{
    if (error)
        *error = "the simulation farm is not supported on this platform";
    return false;
}

int
FarmServer::serve()
{
    return 1;
}

void
FarmServer::requestStop()
{
    stop_.store(true);
}

std::vector<int>
FarmServer::workerPids() const
{
    return {};
}

#endif

} // namespace rnr
