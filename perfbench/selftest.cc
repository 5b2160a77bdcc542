/**
 * @file
 * The benchmark's own tests (`rnr_perfbench selftest`, also registered
 * with ctest): every output check accepts a real cell and rejects a
 * tampered copy, the digest sees every counter, the benchmark's trace
 * capture replays bit-identically to a native run, and the statistics
 * follow their definitions.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "checks.h"
#include "spans.h"

#include "harness/runner.h"

namespace perfbench {

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    g_failures += !ok;
}

rnr::ExperimentConfig
cell(const char *app, const char *input, rnr::PrefetcherKind kind)
{
    rnr::ExperimentConfig c;
    c.app = app;
    c.input = input;
    c.prefetcher = kind;
    c.iterations = 2;
    return c;
}

void
testChecksOnRealCells()
{
    const char *dir = "selftest-stores";
    std::filesystem::remove_all(dir);
    pointStoresAt(dir);
    setenv("RNR_CACHE", "0", 1);
    Spans off(false);
    const std::vector<Pair> pairs = {{"spcg", "atmosmodj"},
                                     {"pagerank", "amazon"}};
    const Corpus corpus = captureCorpus(pairs, off, 0);
    expect(corpus.captures == 2 && corpus.records > 0 &&
               corpus.stored_bytes > 0 &&
               corpus.stored_bytes < corpus.raw_bytes,
           "set-up captures one compressed trace per pair");

    for (const Pair &p : pairs) {
        const rnr::ExperimentConfig cfg =
            cell(p.app.c_str(), p.input.c_str(),
                 rnr::PrefetcherKind::RnrCombined);
        const std::string name = p.app + "/" + p.input;

        // Replay of the benchmark's capture versus a native run.
        const rnr::ExperimentResult replayed =
            rnr::runExperimentUncached(cfg);
        setenv("RNR_TRACE_STORE", "0", 1);
        const rnr::ExperimentResult native = rnr::runExperimentUncached(cfg);
        unsetenv("RNR_TRACE_STORE");
        expect(sameCounters(replayed, native),
               name + ": replaying the benchmark's capture equals a "
                      "native run");
        expect(checkCell(replayed).empty(), name + ": real cell passes");

        rnr::ExperimentResult bad = replayed;
        bad.iterations.back().dram_bytes_total += 64;
        expect(!checkCell(bad).empty(),
               name + ": dram_bytes_total != parts is rejected");
        bad = replayed;
        bad.iterations.front().pf_useful =
            bad.iterations.front().pf_issued + 1;
        expect(!checkCell(bad).empty(),
               name + ": pf_useful > pf_issued is rejected");
        bad = replayed;
        bad.iterations.back().instructions = 0;
        expect(!checkCell(bad).empty(),
               name + ": an empty iteration is rejected");

        // Farm replies: good, poisoned, drifting and pre-warmed-but-
        // simulated cells.
        rnr::CellOutcome o;
        o.result = replayed;
        o.was_cached = true;
        expect(checkFarmReply(o, true, &replayed).empty(),
               name + ": cached farm reply passes");
        o.was_cached = false;
        expect(!checkFarmReply(o, true, nullptr).empty(),
               name + ": simulating a pre-warmed cell is rejected");
        expect(checkFarmReply(o, false, nullptr).empty(),
               name + ": simulating a cold cell passes");
        rnr::CellOutcome drift = o;
        drift.result.iterations.back().cycles += 1;
        expect(!checkFarmReply(drift, false, &replayed).empty(),
               name + ": a farm result differing from its earlier reply "
                      "is rejected");
        expect(!sameCounters(drift.result, replayed),
               name + ": a farm result differing from in-process is "
                      "rejected");
        rnr::CellOutcome poisoned;
        poisoned.status = rnr::CellOutcome::Status::Poisoned;
        poisoned.error = "crashed";
        expect(!checkFarmReply(poisoned, false, nullptr).empty(),
               name + ": a poisoned cell is rejected");
        rnr::CellOutcome tampered = o;
        tampered.result.iterations.back().dram_bytes_demand += 64;
        expect(!checkFarmReply(tampered, false, nullptr).empty(),
               name + ": a tampered farm cell is rejected");
    }
    unsetenv("RNR_CACHE");
    std::filesystem::remove_all(dir);
}

void
testDigestSeesEveryCounter()
{
    rnr::ExperimentResult r;
    r.config = cell("spcg", "bbmat", rnr::PrefetcherKind::None);
    r.iterations.resize(2);
    std::uint64_t v = 1;
#define PERFBENCH_FILL(type, name)                                          \
    for (rnr::IterStats & it : r.iterations)                                \
        it.name = v++;
    RNR_ITER_STAT_FIELDS(PERFBENCH_FILL)
#undef PERFBENCH_FILL
    const std::uint64_t base = counterDigest({r});
    int missed = 0;
#define PERFBENCH_TWEAK(type, name)                                         \
    {                                                                       \
        rnr::ExperimentResult t = r;                                        \
        t.iterations.back().name += 1;                                      \
        missed += counterDigest({t}) == base || sameCounters(t, r);         \
    }
    RNR_ITER_STAT_FIELDS(PERFBENCH_TWEAK)
#undef PERFBENCH_TWEAK
    expect(missed == 0, "digest and comparison see every IterStats field");

    rnr::ExperimentResult t = r;
    t.seq_table_bytes += 1;
    expect(counterDigest({t}) != base, "digest sees the metadata size");

    rnr::ExperimentResult other = r;
    other.config.input = "pdb1HYS";
    expect(counterDigest({r, other}) == counterDigest({other, r}),
           "digest does not depend on cell order");
}

void
testStatistics()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Tail t = tailOf(v);
    expect(t.value == 90 && t.samples == 100 &&
               std::fabs(t.percentile - 90) < 1e-9,
           "tail of 1..100 is the 11th largest (p90)");
    const Tail few = tailOf({3, 1, 2});
    expect(few.value == 3 && few.percentile == 100,
           "tail of too few samples is the maximum");
    expect(median({4, 1, 3, 2}) == 2.5 && median({5, 1, 3}) == 3,
           "median of even and odd counts");

    Spans sp(true);
    const std::uint64_t root = sp.add("root", 0, -1, 0, 10);
    sp.add("a", root, 0, 1, 4);
    sp.add("b", root, 1, 3, 6); // overlaps a: counted once
    const std::vector<double> self = selfTimes(sp.all());
    expect(std::fabs(self[0] - 5) < 1e-12 && self[1] == 3 && self[2] == 3,
           "self time subtracts the union of children");
}

void
testModelledMetrics()
{
    auto mk = [](rnr::PrefetcherKind k, std::uint64_t cycles,
                 std::uint64_t dram) {
        rnr::ExperimentResult r;
        r.config = cell("pagerank", "urand", k);
        rnr::IterStats it;
        it.cycles = cycles;
        it.instructions = 1000;
        it.l2_demand_misses = 100;
        it.pf_issued = 50;
        it.pf_useful = 40;
        it.dram_bytes_total = it.dram_bytes_demand = dram;
        r.iterations = {it, it};
        return r;
    };
    const Modelled m = modelledMetrics(
        {mk(rnr::PrefetcherKind::None, 2110, 6400),
         mk(rnr::PrefetcherKind::RnrCombined, 1000, 3200)});
    expect(m.pairs == 1 && std::fabs(m.speedup - 2.11) < 1e-9 &&
               std::fabs(m.paper_err) < 1e-9 &&
               std::fabs(m.offchip - 0.5) < 1e-12 &&
               std::fabs(m.accuracy - 0.8) < 1e-12,
           "modelled metrics pair rnr-combined with none");
}

} // namespace

int
selftest()
{
    testStatistics();
    testDigestSeesEveryCounter();
    testModelledMetrics();
    testChecksOnRealCells();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures;
}

} // namespace perfbench
