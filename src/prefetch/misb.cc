#include "prefetch/misb.h"

#include "mem/memory_system.h"

namespace rnr {

MisbPrefetcher::MisbPrefetcher(unsigned degree,
                               std::size_t metadata_cache_entries)
    : degree_(degree),
      c_metadata_cache_hits_(stats_.declare("metadata_cache_hits")),
      c_metadata_cache_misses_(stats_.declare("metadata_cache_misses")),
      meta_cache_(metadata_cache_entries)
{
}

void
MisbPrefetcher::touchMetadata(std::uint64_t key, Tick now)
{
    // Mapping entries are packed 8 to a 64 B metadata line.
    const std::uint64_t line = key >> 3;
    if (meta_cache_.touch(line)) {
        ++c_metadata_cache_hits_;
        return;
    }
    ++c_metadata_cache_misses_;
    // Off-chip metadata access: one line read, and a dirty line written
    // back half the time (training constantly updates mappings).
    ms_->metadataRead(metadata_base_ + line * kBlockSize, kBlockSize, now);
    if ((line & 1) == 0)
        ms_->metadataWrite(metadata_base_ + line * kBlockSize, kBlockSize,
                           now);
    if (meta_cache_.full())
        meta_cache_.popFront();
    meta_cache_.pushBack(line);
}

void
MisbPrefetcher::onAccess(const L2AccessInfo &info)
{
    if (info.hit && !info.merged)
        return; // temporal prefetchers train on the miss stream

    touchMetadata(info.block, info.now);

    // --- Predict: structural neighbours of this block ---
    if (const std::uint64_t *ps = ps_map_.find(info.block)) {
        const std::uint64_t s = *ps;
        for (unsigned d = 1; d <= degree_; ++d) {
            const Addr *sp = sp_map_.find(s + d);
            if (!sp)
                break;
            const Addr block = *sp;
            touchMetadata(s + d, info.now);
            issuePrefetch(block << kBlockBits, info.now, info.pc);
        }
    }

    // --- Train: append this block to its PC's structural stream ---
    const auto [last, first_miss] = training_.tryEmplace(info.pc, info.block);
    if (first_miss)
        return;
    const Addr prev = *last;
    *last = info.block;
    std::uint64_t prev_s;
    if (const std::uint64_t *p = ps_map_.find(prev)) {
        prev_s = *p;
    } else {
        // Allocate a fresh stream for the predecessor.
        const auto [alloc, fresh] =
            stream_alloc_.tryEmplace(info.pc, next_stream_base_);
        if (fresh)
            next_stream_base_ += kStreamStride;
        prev_s = *alloc;
        *alloc += 2; // leave room to grow the stream
        ps_map_[prev] = prev_s;
        sp_map_[prev_s] = prev;
    }
    // Give the current block the next structural slot unless it already
    // belongs to a stream (first mapping wins, as in ISB).
    if (!ps_map_.contains(info.block) &&
        sp_map_.tryEmplace(prev_s + 1, info.block).second)
        ps_map_[info.block] = prev_s + 1;
}

RNR_CKPT_DEFINE_STATE(MisbPrefetcher)

} // namespace rnr
