#include "farm/farm_worker.h"

#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "farm/farm_protocol.h"
#include "harness/json_write.h"
#include "harness/result_cache.h"
#include "harness/runner.h"
#include "obs/log.h"
#include "sim/trace_event.h"

namespace rnr {

namespace {

/** True when the env hook @p var is set and @p key contains its value. */
bool
testHookMatches(const char *var, const std::string &key)
{
    const char *v = std::getenv(var);
    return v && *v && key.find(v) != std::string::npos;
}

std::string
errorFrame(const std::string &message)
{
    return "{\"type\": \"error\", \"message\": " + jsonQuote(message) +
           "}";
}

} // namespace

std::string
farmSelfExePath()
{
#ifdef __linux__
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
#endif
    return "";
}

int
farmWorkerMain(int fd)
{
#ifdef _WIN32
    (void)fd;
    return 1;
#else
    for (;;) {
        std::string payload, err;
        if (!farmReadFrame(fd, payload, &err))
            return err.empty() ? 0 : 1; // EOF = daemon went away

        JsonValue msg;
        if (!parseJson(payload, msg, &err)) {
            farmWriteFrame(fd, errorFrame("bad frame: " + err));
            return 1;
        }
        const JsonValue *type = msg.find("type");
        const std::string t = type ? type->text : "";
        if (t == "quit")
            return 0;
        if (t != "cell") {
            farmWriteFrame(fd, errorFrame("unexpected message '" + t +
                                          "'"));
            return 1;
        }

        const JsonValue *id = msg.find("id");
        const JsonValue *cfg_v = msg.find("config");
        ExperimentConfig cfg;
        if (!id || !cfg_v || !farmParseConfig(*cfg_v, cfg, &err)) {
            farmWriteFrame(fd, errorFrame("bad cell: " + err));
            return 1;
        }
        const std::string id_txt = id->text;
        const std::string key = cfg.key();

        // Failure injection for the quarantine tests: crash or hang
        // exactly as a buggy simulator would, *before* touching caches.
        if (testHookMatches("RNR_FARM_TEST_ABORT_KEY", key))
            std::abort();
        if (testHookMatches("RNR_FARM_TEST_HANG_KEY", key))
            for (;;)
                ::pause();

        // A traced cell (span correlation, docs/HARNESS.md §16) rides
        // with a span id and a directory to drop its Perfetto JSON in.
        const JsonValue *span_v = msg.find("span");
        const JsonValue *td_v = msg.find("trace_dir");
        const std::string trace_dir = td_v ? td_v->text : "";

        std::ostringstream reply;
        try {
            bool was_cached = false;
            ExperimentResult r;
            if (!trace_dir.empty()) {
                // Always simulates (runExperimentInstrumented bypasses
                // the cache — a hit would produce no events); store()
                // keeps the normal persistence contract for the daemon.
                TraceCollector tr(cfg.cores);
                r = runExperimentInstrumented(cfg, {.tr = &tr});
                ResultCache::instance().store(key, r);
                const std::string out =
                    trace_dir + "/span_" +
                    (span_v ? span_v->text : id_txt) + ".json";
                if (!writeChromeTrace(out, tr))
                    obs::LogLine(obs::LogLevel::Warn, "farm-worker")
                        .msg("cannot write span trace")
                        .kv("cell", key)
                        .kv("path", out);
            } else {
                r = runExperiment(cfg, &was_cached);
            }
            reply << "{\"type\": \"cell-done\", \"id\": " << id_txt
                  << ", \"cached\": " << jsonBool(was_cached)
                  << ", \"data\": " << jsonQuote(farmResultData(r))
                  << "}";
        } catch (const std::exception &e) {
            reply << "{\"type\": \"cell-error\", \"id\": " << id_txt
                  << ", \"message\": " << jsonQuote(e.what()) << "}";
        } catch (...) {
            reply << "{\"type\": \"cell-error\", \"id\": " << id_txt
                  << ", \"message\": \"unknown exception\"}";
        }
        if (!farmWriteFrame(fd, reply.str()))
            return 1;
    }
#endif
}

void
farmWorkerMaybeExec(int argc, char **argv)
{
    if (argc < 3 || std::strcmp(argv[1], kFarmWorkerArg) != 0)
        return;
    const int fd = std::atoi(argv[2]);
    if (fd <= 0)
        std::_Exit(1);
#ifndef _WIN32
    std::_Exit(farmWorkerMain(fd));
#else
    std::_Exit(1);
#endif
}

} // namespace rnr
