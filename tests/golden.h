/**
 * @file
 * Golden-digest helpers for the tests that pin absolute model output.
 *
 * A digest is FNV-1a64 (ckpt/serde.h) over a list of u64 words.  For a
 * harness cell the words are the ones the repo benchmark's counter
 * digest hashes per cell: input_bytes, target_bytes, seq_table_bytes,
 * div_table_bytes, the iteration count, then every RNR_ITER_STAT_FIELDS
 * field of every iteration in order.  For a System they are the
 * SystemCounters fields in RNR_ITER_STAT_FIELDS order.
 *
 * The goldens are data, not a second implementation: a change that
 * moves the model on purpose updates them from the digests the tests
 * print (docs/PERF.md section 4).
 */
#ifndef RNR_TESTS_GOLDEN_H
#define RNR_TESTS_GOLDEN_H

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/serde.h"
#include "harness/experiment.h"
#include "harness/system_counters.h"

namespace rnr::test {

inline std::uint64_t
digestWords(const std::vector<std::uint64_t> &w)
{
    return ckpt::fnv1a64(w.data(), w.size() * sizeof(w[0]));
}

/** Digest of one harness cell's counters. */
inline std::uint64_t
counterDigest(const ExperimentResult &r)
{
    std::vector<std::uint64_t> w{r.input_bytes, r.target_bytes,
                                 r.seq_table_bytes, r.div_table_bytes,
                                 r.iterations.size()};
    for (const IterStats &it : r.iterations) {
#define RNR_GOLDEN_WORD(type, name) w.push_back(it.name);
        RNR_ITER_STAT_FIELDS(RNR_GOLDEN_WORD)
#undef RNR_GOLDEN_WORD
    }
    return digestWords(w);
}

/** Digest of a System's cumulative counters. */
inline std::uint64_t
counterDigest(const SystemCounters &c)
{
    std::vector<std::uint64_t> w;
#define RNR_GOLDEN_WORD(type, name) w.push_back(c.name);
    RNR_ITER_STAT_FIELDS(RNR_GOLDEN_WORD)
#undef RNR_GOLDEN_WORD
    return digestWords(w);
}

/** "0x%016llx" spelling, as the golden tables are written. */
inline std::string
hexDigest(std::uint64_t d)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, d);
    return buf;
}

} // namespace rnr::test

#endif // RNR_TESTS_GOLDEN_H
