#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>

#include "harness/json_write.h"

namespace perfbench {

double
nowSec()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::uint64_t
Spans::add(const std::string &name, std::uint64_t parent, long cell,
           double start, double end, const std::string &detail)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.cell = cell;
    s.detail = detail;
    s.start = start;
    s.end = end;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::uint64_t
Spans::begin(const std::string &name, std::uint64_t parent, long cell)
{
    const double t = nowSec();
    return add(name, parent, cell, t, t);
}

void
Spans::end(std::uint64_t id)
{
    if (!enabled_ || id == 0)
        return;
    const double t = nowSec();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = t;
}

std::vector<Span>
Spans::all() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span &s : spans)
        if (s.parent != 0)
            kids[s.parent].emplace_back(s.start, s.end);

    std::vector<double> self;
    self.reserve(spans.size());
    for (const Span &s : spans) {
        double covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            // Union of the children's intervals, clipped to the parent:
            // concurrent children (sweep cells) must not count twice.
            std::vector<std::pair<double, double>> iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = 0, hi = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (a > hi) {
                    if (hi > lo)
                        covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            if (hi > lo)
                covered += hi - lo;
        }
        self.push_back(std::max(0.0, (s.end - s.start) - covered));
    }
    return self;
}

bool
Spans::write(const std::string &path) const
{
    const std::vector<Span> spans = all();
    const std::vector<double> self = selfTimes(spans);
    std::ofstream os(path);
    os << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"name\": " << rnr::jsonQuote(s.name)
           << ", \"cell\": " << s.cell
           << ", \"detail\": " << rnr::jsonQuote(s.detail)
           << ", \"start_s\": " << rnr::jsonDouble(s.start)
           << ", \"dur_s\": " << rnr::jsonDouble(s.end - s.start)
           << ", \"self_s\": " << rnr::jsonDouble(self[i]) << "}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace perfbench
