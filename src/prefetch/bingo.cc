#include "prefetch/bingo.h"

namespace rnr {

BingoPrefetcher::BingoPrefetcher(unsigned region_blocks,
                                 std::size_t history_entries,
                                 std::size_t active_entries)
    : region_blocks_(region_blocks),
      active_(active_entries),
      history_(history_entries)
{
}

std::uint64_t
BingoPrefetcher::pcAddrKey(std::uint32_t pc, Addr block)
{
    return (static_cast<std::uint64_t>(pc) << 40) ^ (block << 1) ^ 1u;
}

std::uint64_t
BingoPrefetcher::pcOffsetKey(std::uint32_t pc, unsigned offset)
{
    return (static_cast<std::uint64_t>(pc) << 40) ^
           (static_cast<std::uint64_t>(offset) << 1);
}

void
BingoPrefetcher::historyInsert(std::uint64_t key, std::uint64_t footprint)
{
    if (std::uint64_t *fp = history_.find(key)) {
        *fp = footprint;
        return;
    }
    if (history_.full())
        history_.popFront();
    history_.pushBack(key, footprint);
}

void
BingoPrefetcher::commit(const Generation &gen)
{
    historyInsert(pcAddrKey(gen.trigger_pc, gen.trigger_block),
                  gen.footprint);
    historyInsert(pcOffsetKey(gen.trigger_pc, gen.trigger_offset),
                  gen.footprint);
}

void
BingoPrefetcher::onAccess(const L2AccessInfo &info)
{
    const Addr region = info.block / region_blocks_;
    const unsigned offset =
        static_cast<unsigned>(info.block % region_blocks_);

    if (Generation *gen = active_.find(region)) {
        gen->footprint |= std::uint64_t{1} << offset;
        return;
    }

    // New generation: retire the oldest if the tracker is full.
    if (active_.full())
        commit(active_.popFront());

    Generation gen;
    gen.trigger_pc = info.pc;
    gen.trigger_offset = offset;
    gen.trigger_block = info.block;
    gen.footprint = std::uint64_t{1} << offset;
    active_.pushBack(region, gen);

    // Predict with the most specific event that has history.
    const std::uint64_t *fp = history_.find(pcAddrKey(info.pc, info.block));
    if (!fp)
        fp = history_.find(pcOffsetKey(info.pc, offset));
    if (!fp)
        return;

    const std::uint64_t footprint = *fp;
    const Addr region_base = region * region_blocks_;
    for (unsigned b = 0; b < region_blocks_; ++b) {
        if (b == offset || !((footprint >> b) & 1))
            continue;
        issuePrefetch((region_base + b) << kBlockBits, info.now,
                      info.pc);
    }
}

RNR_CKPT_DEFINE_STATE(BingoPrefetcher)

} // namespace rnr
