/**
 * @file
 * Global History Buffer temporal prefetcher (Nesbit & Smith, G/AC
 * organisation): a circular buffer of recent miss block addresses, linked
 * by address so that on a miss to block X the prefetcher finds X's
 * previous occurrence and prefetches the blocks that followed it then.
 *
 * This is the design Section II's motivating example criticises: with
 * mixed streams the most recent occurrence wins, so interleaved patterns
 * mispredict — the tests assert exactly that behaviour.
 */
#ifndef RNR_PREFETCH_GHB_H
#define RNR_PREFETCH_GHB_H

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"
#include "sim/flat_table.h"

namespace rnr {

class GhbPrefetcher : public Prefetcher
{
  public:
    explicit GhbPrefetcher(std::size_t buffer_entries = 4096,
                           unsigned degree = 4);

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "ghb"; }
    RNR_CKPT_DECLARE_STATE_OVERRIDE();

    template <class Ar>
    void
    visitState(Ar &ar)
    {
        visitBaseState(ar);
        ckpt::seq(ar, buffer_);
        ar.scalar(head_);
        index_.visitState(ar);
    }

  private:
    struct Node {
        Addr block = 0;
        bool valid = false;

        template <class Ar>
        void
        visitState(Ar &ar)
        {
            ar.scalar(block);
            ar.scalar(valid);
        }
    };

    std::vector<Node> buffer_;
    std::size_t head_ = 0; ///< Next write position (circular).
    FlatMap<Addr, std::size_t> index_; ///< block -> last pos.
    unsigned degree_;
};

} // namespace rnr

#endif // RNR_PREFETCH_GHB_H
