#include "prefetch/domino.h"

namespace rnr {

DominoPrefetcher::DominoPrefetcher(std::size_t buffer_entries,
                                   unsigned degree)
    : history_(buffer_entries), degree_(degree)
{
}

void
DominoPrefetcher::onAccess(const L2AccessInfo &info)
{
    if (info.hit && !info.merged)
        return; // temporal: train on the miss stream

    // Predict using the (previous, current) pair.
    if (have_prev_) {
        const std::size_t *last =
            index_.find(pairKey(prev_miss_, info.block));
        if (last && history_[*last].valid &&
            history_[*last].block == info.block) {
            const std::size_t pos = *last;
            for (unsigned d = 1; d <= degree_; ++d) {
                const std::size_t next = (pos + d) % history_.size();
                if (next == head_ || !history_[next].valid)
                    break;
                issuePrefetch(history_[next].block << kBlockBits,
                              info.now, info.pc);
            }
        }
    }

    // Record the miss and index it by the pair that led to it.
    Node &node = history_[head_];
    if (node.valid) {
        // Invalidate any stale index entry pointing at this slot; the
        // key is unknown here, so rely on the position check above.
        node.valid = false;
    }
    node.block = info.block;
    node.valid = true;
    if (have_prev_)
        index_[pairKey(prev_miss_, info.block)] = head_;
    head_ = (head_ + 1) % history_.size();

    prev_miss_ = info.block;
    have_prev_ = true;

    // Bound the index against unbounded growth.
    if (index_.size() > history_.size() * 2)
        index_.clear();
}

RNR_CKPT_DEFINE_STATE(DominoPrefetcher)

} // namespace rnr
