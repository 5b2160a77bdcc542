/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded by the benchmark's own code around its calls into
 * the simulator's layers (nothing inside src/ is instrumented).  Each
 * span has an id, the id of the span that caused it, an optional cell
 * id shared by every span of one simulated cell, and host start/end
 * times.  They are kept in memory and written once, at exit, with each
 * span's self time: its duration minus the part of it covered by its
 * children.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds on a monotonic clock since the process started. */
double nowSec();

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string name;         ///< "<layer>.<call>", e.g. "harness.cell"
    long cell = -1;           ///< cell id, -1 when not cell-scoped
    std::string detail;       ///< what the span worked on (cell label)
    double start = 0, end = 0;
};

/** Thread-safe span store; a disabled recorder records nothing. */
class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    /** Records a finished interval; returns its id (0 when disabled). */
    std::uint64_t add(const std::string &name, std::uint64_t parent,
                      long cell, double start, double end,
                      const std::string &detail = "");

    /** Opens a span now; close it with end(). */
    std::uint64_t begin(const std::string &name, std::uint64_t parent = 0,
                        long cell = -1);
    void end(std::uint64_t id);

    /** Copy of every span recorded so far. */
    std::vector<Span> all() const;

    /** Writes every span with its self time as JSON; false on I/O
     *  failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_; index = id - 1
};

/** Self time of each span (same order as @p spans). */
std::vector<double> selfTimes(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
