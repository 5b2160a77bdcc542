/**
 * @file
 * Flat metadata tables for the prefetch layer.
 *
 * Hardware keeps prefetcher metadata in fixed-size, directly indexed
 * SRAM tables; node-based std::unordered_map plus hand-linked std::list
 * chains pay a heap node and a pointer chase per entry instead.  Two
 * pieces replace them:
 *
 *  - FlatMap<K, V>: an open-addressing hash map for unsigned integer
 *    keys — linear probing over a power-of-two slot array, grown at 3/4
 *    load, backward-shift erase (no tombstones).  A slot is just
 *    {key, value}: the all-ones key marks an empty slot and a real
 *    all-ones key lives in one side slot, so a u64->u64 map costs 16
 *    bytes a slot and nothing per entry.
 *  - LruTable<K, V>: a fixed-capacity table whose entries are linked
 *    oldest-to-newest by slot index.  touch() moves an entry to the back
 *    (LRU); a caller that never touches gets a FIFO.
 *
 * Lookups are by key only and no pointer is ever hashed, so every run of
 * the same operations lays the tables out identically.  Checkpoints
 * write a FlatMap in key order and an LruTable oldest first, so save ->
 * load -> save yields the same bytes.
 */
#ifndef RNR_SIM_FLAT_TABLE_H
#define RNR_SIM_FLAT_TABLE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/serde.h"

namespace rnr {

template <class K, class V>
class FlatMap
{
    static_assert(std::is_unsigned_v<K>, "FlatMap keys are unsigned ints");

  public:
    std::size_t size() const { return size_ + (has_max_ ? 1 : 0); }
    bool empty() const { return size() == 0; }

    /** The value stored under @p key, or nullptr.  Valid until the next
     *  insert or erase. */
    V *
    find(K key)
    {
        if (key == kEmpty)
            return has_max_ ? &max_val_ : nullptr;
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.val;
            if (s.key == kEmpty)
                return nullptr;
        }
    }

    const V *
    find(K key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(K key) const { return find(key) != nullptr; }

    /** Inserts (@p key, @p v) unless @p key is present.  Returns the
     *  stored value and whether this call inserted it. */
    std::pair<V *, bool>
    tryEmplace(K key, V v = V{})
    {
        if (key == kEmpty) {
            const bool fresh = !has_max_;
            if (fresh)
                max_val_ = v;
            has_max_ = true;
            return {&max_val_, fresh};
        }
        if ((size_ + 1) * 4 > slots_.size() * 3)
            rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
        std::size_t i = home(key);
        for (; slots_[i].key != kEmpty; i = (i + 1) & mask_)
            if (slots_[i].key == key)
                return {&slots_[i].val, false};
        slots_[i] = Slot{key, v};
        ++size_;
        return {&slots_[i].val, true};
    }

    /** The value under @p key, value-initialised on first use. */
    V &operator[](K key) { return *tryEmplace(key).first; }

    /** Removes @p key; false when it was absent. */
    bool
    erase(K key)
    {
        if (key == kEmpty) {
            const bool had = has_max_;
            has_max_ = false;
            return had;
        }
        if (size_ == 0)
            return false;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key) {
                eraseSlot(i);
                return true;
            }
            if (slots_[i].key == kEmpty)
                return false;
        }
    }

    /**
     * Erases every entry for which @p pred(key, value&) is true, offering
     * each entry to @p pred exactly once; returns how many went.  The
     * scan starts just past an empty slot, so no probe run wraps across
     * its start: a backward shift then only moves an entry from ahead
     * of the cursor onto the cursor (re-examined) or further ahead.
     */
    template <class Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        std::size_t erased = 0;
        if (has_max_ && pred(kEmpty, max_val_)) {
            has_max_ = false;
            ++erased;
        }
        if (size_ == 0)
            return erased;
        std::size_t start = 0;
        while (slots_[start].key != kEmpty)
            ++start;
        std::size_t i = (start + 1) & mask_;
        for (std::size_t left = slots_.size(); left != 0;) {
            Slot &s = slots_[i];
            if (s.key != kEmpty && pred(s.key, s.val)) {
                eraseSlot(i);
                ++erased;
                continue;
            }
            i = (i + 1) & mask_;
            --left;
        }
        return erased;
    }

    /** Calls @p fn(key, value) for every entry, in slot order. */
    template <class Fn>
    void
    forEach(Fn fn) const
    {
        if (has_max_)
            fn(kEmpty, max_val_);
        for (const Slot &s : slots_)
            if (s.key != kEmpty)
                fn(s.key, s.val);
    }

    /** Empties the map; the slot array keeps its size. */
    void
    clear()
    {
        if (size_ != 0)
            for (Slot &s : slots_)
                s.key = kEmpty;
        size_ = 0;
        has_max_ = false;
    }

    /** Sizes the slot array so @p n entries fit without a rehash. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = kMinSlots;
        while (n * 4 > want * 3)
            want *= 2;
        if (want > slots_.size())
            rehash(want);
    }

    // ---- Introspection (tests) ----
    std::size_t slotCount() const { return slots_.size(); }
    /** Home slot of @p key; the map must have slots (slotCount() > 0). */
    std::size_t homeSlot(K key) const { return home(key); }

    /** Checkpoint visitor: u64 count + (key, value) pairs in ascending
     *  key order, so equal contents always serialise to equal bytes
     *  whatever the insertion history.  Values go through visitValue
     *  (scalars or their own visitState). */
    template <class Ar>
    void
    visitState(Ar &ar)
    {
        std::uint64_t n = size();
        ar.scalar(n);
        if constexpr (Ar::kLoading) {
            clear();
            if (!ckpt::checkCount(ar, n, 16))
                return;
            for (std::uint64_t i = 0; i < n; ++i) {
                K k{};
                V v{};
                ar.scalar(k);
                ckpt::visitValue(ar, v);
                (*this)[k] = v;
            }
        } else {
            std::vector<std::pair<K, V>> sorted;
            sorted.reserve(size());
            forEach([&](K k, const V &v) { sorted.emplace_back(k, v); });
            std::sort(sorted.begin(), sorted.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            for (auto &kv : sorted) {
                ar.scalar(kv.first);
                ckpt::visitValue(ar, kv.second);
            }
        }
    }

  private:
    static constexpr K kEmpty = static_cast<K>(~K{0});
    static constexpr std::size_t kMinSlots = 16;
    static constexpr unsigned kGroupBits = 2;

    struct Slot {
        K key = kEmpty;
        V val{};
    };

    /** Keys that differ only in their low kGroupBits bits get adjacent
     *  home slots, so runs of consecutive keys (MISB's structural
     *  addresses, neighbouring blocks) share cache lines; the rest of
     *  the key picks the group by Fibonacci hashing, the top bits of
     *  (key >> kGroupBits) * 2^64/phi. */
    std::size_t
    home(K key) const
    {
        const std::uint64_t k = key;
        const std::uint64_t group =
            ((k >> kGroupBits) * 0x9e3779b97f4a7c15ull) >> shift_;
        return static_cast<std::size_t>(
            (group << kGroupBits) | (k & ((1u << kGroupBits) - 1)));
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<Slot> old(slots, Slot{});
        old.swap(slots_);
        mask_ = slots - 1;
        shift_ = 64 + kGroupBits;
        for (std::size_t s = slots; s > 1; s >>= 1)
            --shift_;
        for (const Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    /** Backward-shift deletion: pulls each later entry of the probe run
     *  into the hole when the hole lies between its home and its slot. */
    void
    eraseSlot(std::size_t hole)
    {
        for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty;
             j = (j + 1) & mask_) {
            const std::size_t from_home = (j - home(slots_[j].key)) & mask_;
            if (from_home >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = kEmpty;
        --size_;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64; ///< 64 - log2(slots / groups).
    std::size_t size_ = 0; ///< Entries in slots_ (the side slot aside).
    bool has_max_ = false; ///< Side slot holds the all-ones key.
    V max_val_{};
};

/** Value type of a key-only LruTable. */
struct NoValue {
};

/**
 * Fixed-capacity table with its entries linked oldest-to-newest by slot
 * index.  pushBack() appends the newest entry, popFront() retires the
 * oldest, touch() makes an entry the newest again.  Keys map to slots
 * through a FlatMap, so every operation is O(1) with no allocation
 * after the slot array has filled once.
 */
template <class K, class V = NoValue>
class LruTable
{
  public:
    /** @p capacity 0 is taken as 1. */
    explicit LruTable(std::size_t capacity)
        : cap_(std::max<std::size_t>(capacity, 1))
    {
        index_.reserve(cap_);
    }

    std::size_t size() const { return index_.size(); }
    bool full() const { return size() >= cap_; }

    /** The value under @p key without reordering, or nullptr. */
    V *
    find(K key)
    {
        const std::uint32_t *slot = index_.find(key);
        return slot ? &nodes_[*slot].val : nullptr;
    }

    /** Makes @p key the newest entry; false when it is absent. */
    bool
    touch(K key)
    {
        const std::uint32_t *slot = index_.find(key);
        if (!slot)
            return false;
        const std::uint32_t s = *slot;
        if (s != tail_) {
            unlink(s);
            linkBack(s);
        }
        return true;
    }

    /** Appends @p key as the newest entry.  The caller guarantees the
     *  key is absent and the table is not full(). */
    V &
    pushBack(K key, V v = V{})
    {
        std::uint32_t s;
        if (free_ != kNil) {
            s = free_;
            free_ = nodes_[s].next;
        } else {
            s = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        nodes_[s].key = key;
        nodes_[s].val = v;
        linkBack(s);
        index_[key] = s;
        return nodes_[s].val;
    }

    /** Removes the oldest entry (the table must not be empty) and
     *  returns its value. */
    V
    popFront()
    {
        const std::uint32_t s = head_;
        unlink(s);
        index_.erase(nodes_[s].key);
        nodes_[s].next = free_;
        free_ = s;
        return nodes_[s].val;
    }

    /** Calls @p fn(key, value) for every entry, oldest first. */
    template <class Fn>
    void
    forEach(Fn fn) const
    {
        for (std::uint32_t s = head_; s != kNil; s = nodes_[s].next)
            fn(nodes_[s].key, nodes_[s].val);
    }

    void
    clear()
    {
        nodes_.clear();
        index_.clear();
        head_ = tail_ = free_ = kNil;
    }

    /**
     * Checkpoint visitor, oldest first: u64 count + (key, value) pairs
     * (omitted for key-only tables), then u64 count + the keys.  Loading
     * takes the order from the key list and the values from the pairs,
     * and fails on a key list that is not a permutation of the pairs or
     * that exceeds the capacity.
     */
    template <class Ar>
    void
    visitState(Ar &ar)
    {
        constexpr bool kHasValue = !std::is_same_v<V, NoValue>;
        if constexpr (Ar::kLoading) {
            clear();
            FlatMap<K, V> values;
            std::uint64_t n = 0;
            if constexpr (kHasValue) {
                ar.scalar(n);
                if (!ckpt::checkCount(ar, n, 16))
                    return;
                for (std::uint64_t i = 0; i < n; ++i) {
                    K k{};
                    V v{};
                    ar.scalar(k);
                    ckpt::visitValue(ar, v);
                    values[k] = v;
                }
            }
            std::uint64_t m = 0;
            ar.scalar(m);
            if (!ckpt::checkCount(ar, m, 8))
                return;
            if (m > cap_ || (kHasValue && m != values.size())) {
                ar.fail("lru table of " + std::to_string(m) +
                        " keys does not fit its capacity or values");
                return;
            }
            for (std::uint64_t i = 0; i < m; ++i) {
                K k{};
                ar.scalar(k);
                const V *v = kHasValue ? values.find(k) : nullptr;
                if ((kHasValue && !v) || index_.contains(k)) {
                    ar.fail("lru table key list does not match its values");
                    return;
                }
                pushBack(k, v ? *v : V{});
            }
        } else {
            std::uint64_t n = size();
            if constexpr (kHasValue) {
                ar.scalar(n);
                for (std::uint32_t s = head_; s != kNil; s = nodes_[s].next) {
                    ar.scalar(nodes_[s].key);
                    ckpt::visitValue(ar, nodes_[s].val);
                }
            }
            ar.scalar(n);
            for (std::uint32_t s = head_; s != kNil; s = nodes_[s].next)
                ar.scalar(nodes_[s].key);
        }
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Node {
        K key{};
        [[no_unique_address]] V val{};
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    void
    unlink(std::uint32_t s)
    {
        Node &n = nodes_[s];
        (n.prev == kNil ? head_ : nodes_[n.prev].next) = n.next;
        (n.next == kNil ? tail_ : nodes_[n.next].prev) = n.prev;
    }

    void
    linkBack(std::uint32_t s)
    {
        nodes_[s].prev = tail_;
        nodes_[s].next = kNil;
        (tail_ == kNil ? head_ : nodes_[tail_].next) = s;
        tail_ = s;
    }

    std::size_t cap_;
    std::vector<Node> nodes_;          ///< Slot array, at most cap_ long.
    FlatMap<K, std::uint32_t> index_;  ///< Key -> slot.
    std::uint32_t head_ = kNil;        ///< Oldest.
    std::uint32_t tail_ = kNil;        ///< Newest.
    std::uint32_t free_ = kNil;        ///< Popped slots, linked by next.
};

} // namespace rnr

#endif // RNR_SIM_FLAT_TABLE_H
