#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "ckpt/serde.h"
#include "harness/metrics.h"

using rnr::ExperimentResult;
using rnr::IterStats;

namespace perfbench {

std::string
checkCell(const ExperimentResult &r)
{
    if (r.iterations.empty())
        return "no iterations";
    for (std::size_t i = 0; i < r.iterations.size(); ++i) {
        const IterStats &it = r.iterations[i];
        const std::string at = " in iteration " + std::to_string(i);
        if (it.cycles == 0 || it.instructions == 0)
            return "nothing simulated" + at;
        if (it.dram_bytes_total !=
            it.dram_bytes_demand + it.dram_bytes_prefetch +
                it.dram_bytes_metadata + it.dram_bytes_writeback)
            return "dram_bytes_total != sum of its parts" + at;
        if (it.pf_useful > it.pf_issued)
            return "pf_useful > pf_issued" + at;
    }
    return "";
}

namespace {

/** Every simulated counter of @p r, in a fixed order. */
std::vector<std::uint64_t>
counterWords(const ExperimentResult &r)
{
    std::vector<std::uint64_t> w{r.input_bytes, r.target_bytes,
                                 r.seq_table_bytes, r.div_table_bytes,
                                 r.iterations.size()};
    for (const IterStats &it : r.iterations) {
#define PERFBENCH_WORD(type, name) w.push_back(it.name);
        RNR_ITER_STAT_FIELDS(PERFBENCH_WORD)
#undef PERFBENCH_WORD
    }
    return w;
}

} // namespace

bool
sameCounters(const ExperimentResult &a, const ExperimentResult &b)
{
    return counterWords(a) == counterWords(b);
}

std::string
checkFarmReply(const rnr::CellOutcome &o, bool prewarmed,
               const ExperimentResult *earlier)
{
    if (o.status != rnr::CellOutcome::Status::Done)
        return "farm poisoned the cell: " + o.error;
    if (std::string why = checkCell(o.result); !why.empty())
        return why;
    if (earlier && !sameCounters(*earlier, o.result))
        return "farm served different counters for one cell";
    if (prewarmed && !o.was_cached)
        return "farm simulated a pre-warmed cell";
    return "";
}

std::uint64_t
counterDigest(const std::vector<ExperimentResult> &cells)
{
    std::map<std::string, const ExperimentResult *> by_key;
    for (const ExperimentResult &r : cells)
        by_key.emplace(r.config.key(), &r);
    std::uint64_t h = rnr::ckpt::fnv1a64(nullptr, 0);
    for (const auto &[key, r] : by_key) {
        h = rnr::ckpt::fnv1a64(key.data(), key.size(), h);
        const std::vector<std::uint64_t> w = counterWords(*r);
        h = rnr::ckpt::fnv1a64(w.data(), w.size() * sizeof(w[0]), h);
    }
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    if (v.size() < 11) {
        t.value = v.back();
        t.percentile = 100;
        return t;
    }
    const std::size_t rank = v.size() - 11; // ten samples above it
    t.value = v[rank];
    t.percentile = 100.0 * static_cast<double>(rank + 1) /
                   static_cast<double>(v.size());
    return t;
}

Modelled
modelledMetrics(const std::vector<ExperimentResult> &cells)
{
    using rnr::PrefetcherKind;
    std::map<std::string, const ExperimentResult *> none, rc;
    std::map<std::string, std::string> app_of;
    for (const ExperimentResult &r : cells) {
        if (r.config.ideal_llc) // the paper's metrics are on the real LLC
            continue;
        const std::string pair = r.config.app + "/" + r.config.input;
        app_of[pair] = r.config.app;
        if (r.config.prefetcher == PrefetcherKind::None)
            none[pair] = &r;
        else if (r.config.prefetcher == PrefetcherKind::RnrCombined)
            rc[pair] = &r;
    }

    std::vector<double> sp, cov, acc, off;
    std::map<std::string, std::vector<double>> sp_by_app;
    for (const auto &[pair, base] : none) {
        auto it = rc.find(pair);
        if (it == rc.end())
            continue;
        const ExperimentResult &r = *it->second;
        const double s = rnr::speedup(r, *base);
        sp.push_back(s);
        sp_by_app[app_of[pair]].push_back(s);
        cov.push_back(rnr::coverage(r, *base));
        acc.push_back(rnr::accuracy(r));
        const double base_bytes =
            static_cast<double>(base->steady().dram_bytes_total);
        off.push_back(base_bytes > 0
                          ? static_cast<double>(
                                r.steady().dram_bytes_total) /
                                base_bytes
                          : 0.0);
    }

    Modelled m;
    m.pairs = sp.size();
    m.speedup = rnr::geomean(sp);
    m.coverage = rnr::geomean(cov);
    m.accuracy = rnr::geomean(acc);
    m.offchip = rnr::geomean(off);

    static const std::map<std::string, double> kPaper = {
        {"pagerank", 2.11}, {"hyperanf", 2.23}, {"spcg", 2.90}};
    double err = 0;
    std::size_t apps = 0;
    for (const auto &[app, v] : sp_by_app) {
        auto p = kPaper.find(app);
        if (p == kPaper.end())
            continue;
        err += std::fabs(rnr::geomean(v) - p->second) / p->second;
        ++apps;
    }
    m.paper_err = apps ? err / static_cast<double>(apps) : 0.0;
    return m;
}

} // namespace perfbench
