#include "sim/timeseries.h"

#include <cstdlib>

namespace rnr {

const TelemetrySeriesBlob *
TelemetryBlob::findSeries(const std::string &name) const
{
    for (const TelemetrySeriesBlob &s : series)
        if (s.name == name)
            return &s;
    return nullptr;
}

const TelemetryHistogramBlob *
TelemetryBlob::findHistogram(const std::string &name) const
{
    for (const TelemetryHistogramBlob &h : histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

TelemetrySampler::TelemetrySampler(Tick sample_cycles,
                                   std::size_t series_capacity)
    : period_(telemetrySampleCycles(sample_cycles)),
      series_capacity_(series_capacity)
{
}

TelemetrySampler::Source &
TelemetrySampler::source(std::string name, Probe probe)
{
    for (Source &s : sources_) {
        if (s.name == name) {
            s.probe = std::move(probe);
            return s;
        }
    }
    Source s;
    s.name = std::move(name);
    s.probe = std::move(probe);
    s.series = TimeSeries(series_capacity_);
    sources_.push_back(std::move(s));
    return sources_.back();
}

TimeSeries &
TelemetrySampler::addSeries(std::string name, Probe probe)
{
    Source &s = source(std::move(name), std::move(probe));
    s.rate = false;
    return s.series;
}

TimeSeries &
TelemetrySampler::addRate(std::string name, Probe probe,
                          std::uint64_t scale)
{
    Source &s = source(std::move(name), std::move(probe));
    s.rate = true;
    s.scale = scale ? scale : 1;
    return s.series;
}

TimeSeries &
TelemetrySampler::addGauge(std::string name, const Gauge &g)
{
    return addSeries(std::move(name), [&g] { return g.value(); });
}

Log2Histogram &
TelemetrySampler::histogram(const std::string &name)
{
    return histograms_[name];
}

void
TelemetrySampler::sample(Tick now)
{
    ++samples_;
    for (Source &s : sources_) {
        const std::uint64_t v = s.probe();
        std::uint64_t out = v;
        if (s.rate) {
            const Tick dt = now > s.last_tick ? now - s.last_tick : 0;
            const std::uint64_t dv =
                v >= s.last_value ? v - s.last_value : 0;
            out = dt ? dv * s.scale / dt : 0;
            s.last_value = v;
            s.last_tick = now;
        }
        s.series.push(now, out);
    }
    next_ = now + period_;
}

const TimeSeries *
TelemetrySampler::findSeries(const std::string &name) const
{
    for (const Source &s : sources_)
        if (s.name == name)
            return &s.series;
    return nullptr;
}

TelemetryBlob
TelemetrySampler::harvest() const
{
    TelemetryBlob blob;
    blob.sample_cycles = period_;
    blob.samples_taken = samples_;
    blob.series.reserve(sources_.size());
    for (const Source &s : sources_) {
        TelemetrySeriesBlob b;
        b.name = s.name;
        b.keep_every = s.series.keepEvery();
        b.points = s.series.points();
        blob.series.push_back(std::move(b));
    }
    blob.histograms.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_) {
        if (h.count() == 0)
            continue; // registered but never hit: nothing to report
        TelemetryHistogramBlob b;
        b.name = name;
        b.count = h.count();
        b.sum = h.sum();
        for (unsigned i = 0; i < Log2Histogram::kBuckets; ++i)
            if (h.bucket(i))
                b.buckets.emplace_back(i, h.bucket(i));
        blob.histograms.push_back(std::move(b));
    }
    return blob;
}

Tick
telemetryEnvSampleCycles()
{
    const char *p = std::getenv("RNR_SAMPLE_CYCLES");
    if (!p || !*p)
        return 0;
    const long long n = std::strtoll(p, nullptr, 10);
    return n > 0 ? static_cast<Tick>(n) : 0;
}

Tick
telemetrySampleCycles(Tick requested)
{
    if (requested)
        return requested;
    if (const Tick env = telemetryEnvSampleCycles())
        return env;
    return kDefaultSampleCycles;
}

} // namespace rnr
