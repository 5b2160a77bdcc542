#include "farm/farm_trace.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "harness/json_parse.h"
#include "harness/json_write.h"
#include "harness/publish.h"

namespace rnr {

namespace {

/** One parsed daemon_spans.jsonl record. */
struct SpanEvent {
    std::string ev;
    std::uint64_t t_us = 0;
    int worker = -1;
    int attempt = 0;
    bool cached = false;
    std::string note;
};

struct Span {
    std::string key;
    std::vector<SpanEvent> events;
};

/** Worker lanes start here so they never collide with the daemon's
 *  pid 0 or the exporter's own pid 1. */
constexpr std::uint64_t kWorkerPidBase = 1000;

bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

void
appendDurEvent(std::ostringstream &os, bool &first, const std::string &name,
               std::uint64_t span, std::uint64_t ts, std::uint64_t dur)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"name\": \"" << jsonEscape(name)
       << "\", \"cat\": \"farm\", \"ph\": \"X\", \"pid\": 0, \"tid\": "
       << jsonU64(span) << ", \"ts\": " << jsonU64(ts)
       << ", \"dur\": " << jsonU64(dur ? dur : 1) << "}";
}

void
appendInstantEvent(std::ostringstream &os, bool &first,
                   const std::string &name, std::uint64_t span,
                   std::uint64_t ts)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"name\": \"" << jsonEscape(name)
       << "\", \"cat\": \"farm\", \"ph\": \"i\", \"s\": \"t\", "
          "\"pid\": 0, \"tid\": "
       << jsonU64(span) << ", \"ts\": " << jsonU64(ts) << "}";
}

void
appendMetaEvent(std::ostringstream &os, bool &first, const char *what,
                std::uint64_t pid, std::uint64_t tid, bool with_tid,
                const std::string &name)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"name\": \"" << what << "\", \"ph\": \"M\", \"pid\": "
       << jsonU64(pid);
    if (with_tid)
        os << ", \"tid\": " << jsonU64(tid);
    os << ", \"args\": {\"name\": \"" << jsonEscape(name) << "\"}}";
}

/**
 * Lifts the traceEvents array body out of one span_<id>.json, re-homing
 * its events from the exporter's fixed pid 1 to @p pid.  The file is
 * the output of chromeTraceJson(), whose layout ("traceEvents": [ ...
 * "\n  ],") and per-event `"pid": 1, "tid"` shape are pinned by
 * tests/sim/trace_event_test.cc — string surgery here beats a DOM
 * round-trip because the harness has no general JSON writer.
 */
bool
liftWorkerEvents(const std::string &raw, std::uint64_t pid,
                 std::string &out)
{
    static const char kOpen[] = "\"traceEvents\": [";
    static const char kClose[] = "\n  ],";
    const std::size_t open = raw.find(kOpen);
    if (open == std::string::npos)
        return false;
    const std::size_t from = open + sizeof(kOpen) - 1;
    const std::size_t close = raw.find(kClose, from);
    if (close == std::string::npos)
        return false;
    std::string body = raw.substr(from, close - from);
    static const char kPid[] = "\"pid\": 1, \"tid\"";
    const std::string repl =
        "\"pid\": " + std::to_string(pid) + ", \"tid\"";
    std::size_t at = 0;
    while ((at = body.find(kPid, at)) != std::string::npos) {
        body.replace(at, sizeof(kPid) - 1, repl);
        at += repl.size();
    }
    out = std::move(body);
    return true;
}

} // namespace

bool
mergeFarmTrace(const std::string &trace_dir, const std::string &out_path,
               std::string *error)
{
    std::ifstream in(trace_dir + "/daemon_spans.jsonl");
    if (!in) {
        if (error)
            *error = "no daemon span log in " + trace_dir +
                     " (was the batch submitted with a trace_dir?)";
        return false;
    }

    std::map<std::uint64_t, Span> spans;
    std::uint64_t t0 = ~std::uint64_t{0};
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue v;
        std::string err;
        if (!parseJson(line, v, &err)) {
            if (error)
                *error = "daemon_spans.jsonl line " +
                         std::to_string(lineno) + ": " + err;
            return false;
        }
        const JsonValue *span_v = v.find("span");
        const JsonValue *ev_v = v.find("ev");
        const JsonValue *t_v = v.find("t_us");
        if (!span_v || !ev_v || !t_v) {
            if (error)
                *error = "daemon_spans.jsonl line " +
                         std::to_string(lineno) +
                         ": missing span/ev/t_us";
            return false;
        }
        Span &s = spans[span_v->asU64()];
        if (const JsonValue *k = v.find("key"))
            s.key = k->text;
        SpanEvent e;
        e.ev = ev_v->text;
        e.t_us = t_v->asU64();
        if (const JsonValue *w = v.find("worker"))
            e.worker = static_cast<int>(w->asU64());
        if (const JsonValue *a = v.find("attempt"))
            e.attempt = static_cast<int>(a->asU64());
        if (const JsonValue *c = v.find("cached"))
            e.cached = c->boolean;
        if (const JsonValue *n = v.find("note"))
            e.note = n->text;
        t0 = std::min(t0, e.t_us);
        s.events.push_back(std::move(e));
    }
    if (spans.empty()) {
        if (error)
            *error = "daemon span log in " + trace_dir + " is empty";
        return false;
    }

    std::ostringstream os;
    os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
    bool first = true;
    appendMetaEvent(os, first, "process_name", 0, 0, false, "rnr_farmd");

    for (const auto &[id, s] : spans)
        appendMetaEvent(os, first, "thread_name", 0, id, true,
                        "span " + std::to_string(id) + " " + s.key);

    // Daemon lanes: one per span, on the daemon wall clock (t0-based).
    for (auto &[id, s] : spans) {
        std::vector<SpanEvent> ev = s.events;
        std::stable_sort(ev.begin(), ev.end(),
                         [](const SpanEvent &a, const SpanEvent &b) {
                             return a.t_us < b.t_us;
                         });
        // waiting_from tracks the start of the current queue wait
        // (submit or retry); exec_from the current dispatch.
        std::uint64_t waiting_from = 0, exec_from = 0;
        bool waiting = false, executing = false;
        for (const SpanEvent &e : ev) {
            const std::uint64_t ts = e.t_us - t0;
            if (e.ev == "submit") {
                waiting_from = ts;
                waiting = true;
            } else if (e.ev == "dispatch") {
                if (waiting)
                    appendDurEvent(os, first, "queue-wait " + s.key, id,
                                   waiting_from, ts - waiting_from);
                waiting = false;
                exec_from = ts;
                executing = true;
            } else if (e.ev == "done") {
                if (executing)
                    appendDurEvent(os, first,
                                   std::string("exec ") + s.key +
                                       (e.cached ? " (cached)" : ""),
                                   id, exec_from, ts - exec_from);
                executing = false;
            } else if (e.ev == "retry") {
                appendInstantEvent(os, first, "retry: " + e.note, id,
                                   ts);
                waiting_from = ts;
                waiting = true;
                executing = false;
            } else if (e.ev == "worker-death") {
                if (executing)
                    appendDurEvent(os, first, "exec (lost) " + s.key,
                                   id, exec_from, ts - exec_from);
                executing = false;
                appendInstantEvent(os, first,
                                   "worker-death: " + e.note, id, ts);
            } else if (e.ev == "poison") {
                appendInstantEvent(os, first, "poison: " + e.note, id,
                                   ts);
                executing = false;
            }
        }
    }

    // Worker lanes: each executed span's Perfetto file, verbatim but
    // re-homed to its own pid so lanes never collide.
    for (const auto &[id, s] : spans) {
        std::string raw;
        if (!slurp(trace_dir + "/span_" + std::to_string(id) + ".json",
                   raw)) {
            // Poisoned/unfinished cells legitimately have no file.
            appendInstantEvent(os, first, "no worker trace for " + s.key,
                               id, 0);
            continue;
        }
        const std::uint64_t pid = kWorkerPidBase + id;
        std::string body;
        if (!liftWorkerEvents(raw, pid, body)) {
            if (error)
                *error = "span_" + std::to_string(id) +
                         ".json is not a chromeTraceJson() file";
            return false;
        }
        appendMetaEvent(os, first, "process_name", pid, 0, false,
                        "worker span " + std::to_string(id) + " " +
                            s.key);
        if (!body.empty()) {
            if (!first)
                os << ",";
            first = false;
            os << body;
        }
    }

    os << "\n  ],\n  \"otherData\": {\"spans\": " << spans.size()
       << ", \"trace_dir\": " << jsonQuote(trace_dir) << "}\n}\n";

    return publishFile(out_path, os.str(), error);
}

} // namespace rnr
