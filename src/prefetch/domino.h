/**
 * @file
 * Domino temporal prefetcher (Bakhshalipour et al., HPCA'18), condensed.
 *
 * Domino improves on single-address temporal prefetchers by indexing the
 * history with the *pair* of the last two miss addresses, which
 * disambiguates sequences that share one address but not two — exactly
 * the "address 9 followed by both 12 and 20" confusion of the paper's
 * Section II example.  The cost is a larger index and needing two misses
 * to re-find a stream.
 */
#ifndef RNR_PREFETCH_DOMINO_H
#define RNR_PREFETCH_DOMINO_H

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"
#include "sim/flat_table.h"

namespace rnr {

class DominoPrefetcher : public Prefetcher
{
  public:
    explicit DominoPrefetcher(std::size_t buffer_entries = 8192,
                              unsigned degree = 4);

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "domino"; }
    RNR_CKPT_DECLARE_STATE_OVERRIDE();

    template <class Ar>
    void
    visitState(Ar &ar)
    {
        visitBaseState(ar);
        ckpt::seq(ar, history_);
        ar.scalar(head_);
        index_.visitState(ar);
        ar.scalar(prev_miss_);
        ar.scalar(have_prev_);
    }

  private:
    static std::uint64_t
    pairKey(Addr a, Addr b)
    {
        return (a * 0x9e3779b97f4a7c15ull) ^ b;
    }

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

    std::vector<Node> history_;
    std::size_t head_ = 0;
    /** (prev, cur) miss pair -> history position of `cur`. */
    FlatMap<std::uint64_t, std::size_t> index_;
    Addr prev_miss_ = 0;
    bool have_prev_ = false;
    unsigned degree_;
};

} // namespace rnr

#endif // RNR_PREFETCH_DOMINO_H
