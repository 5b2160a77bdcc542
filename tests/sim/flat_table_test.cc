/**
 * @file
 * FlatMap and LruTable (sim/flat_table.h) against the node-based
 * containers they replace: seeded differential runs against
 * std::unordered_map and std::list, plus the probe-run corner cases —
 * keys sharing one home slot, erases across the table's wrap-around,
 * growth, and an eraseIf whose backward shifts move entries while it
 * scans.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "ckpt/serde.h"
#include "sim/flat_table.h"
#include "sim/rng.h"

namespace rnr {
namespace {

using Map = FlatMap<std::uint64_t, std::uint64_t>;
using Ref = std::unordered_map<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

std::map<std::uint64_t, std::uint64_t>
contents(const Map &m)
{
    std::map<std::uint64_t, std::uint64_t> out;
    m.forEach([&](std::uint64_t k, std::uint64_t v) {
        EXPECT_TRUE(out.emplace(k, v).second) << "key listed twice: " << k;
    });
    return out;
}

std::map<std::uint64_t, std::uint64_t>
contents(const Ref &r)
{
    return {r.begin(), r.end()};
}

/** Keys in [0, limit) whose home slot in @p m is @p slot. */
std::vector<std::uint64_t>
keysHomedAt(const Map &m, std::size_t slot, std::size_t want,
            std::uint64_t limit = 1u << 20)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < limit && keys.size() < want; ++k)
        if (m.homeSlot(k) == slot)
            keys.push_back(k);
    return keys;
}

TEST(FlatMap, MatchesUnorderedMapUnderSeededOps)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        Rng rng(seed);
        Map m;
        Ref ref;
        // A small key range keeps collisions, re-inserts and erases of
        // present keys frequent; the all-ones key exercises the side slot.
        auto key = [&] {
            return rng.below(64) == 0 ? kAllOnes : rng.below(600);
        };
        for (int op = 0; op < 40000; ++op) {
            const std::uint64_t k = key();
            switch (rng.below(6)) {
              case 0:
              case 1: {
                const std::uint64_t v = rng.next64();
                m[k] = v;
                ref[k] = v;
                break;
              }
              case 2: {
                const std::uint64_t v = rng.next64();
                const auto [slot, fresh] = m.tryEmplace(k, v);
                const auto [it, ref_fresh] = ref.try_emplace(k, v);
                ASSERT_EQ(fresh, ref_fresh);
                ASSERT_EQ(*slot, it->second);
                break;
              }
              case 3: {
                const std::uint64_t *v = m.find(k);
                const auto it = ref.find(k);
                ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << k;
                if (v) {
                    ASSERT_EQ(*v, it->second);
                }
                break;
              }
              case 4:
                ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "key " << k;
                break;
              default:
                if (rng.below(200) == 0) {
                    const std::uint64_t mod = 2 + rng.below(5);
                    auto pred = [mod](std::uint64_t kk, std::uint64_t) {
                        return kk % mod == 0;
                    };
                    const std::size_t n = m.eraseIf(pred);
                    ASSERT_EQ(n, std::erase_if(ref, [&](const auto &kv) {
                                  return pred(kv.first, kv.second);
                              }));
                } else if (rng.below(2000) == 0) {
                    m.clear();
                    ref.clear();
                }
            }
            ASSERT_EQ(m.size(), ref.size()) << "op " << op;
            if (op % 997 == 0) {
                ASSERT_EQ(contents(m), contents(ref)) << "op " << op;
            }
        }
        EXPECT_EQ(contents(m), contents(ref));
    }
}

TEST(FlatMap, KeysSharingOneHomeSlot)
{
    Map m;
    m.reserve(40); // 64 slots: room for a long run without growing
    ASSERT_EQ(m.slotCount(), 64u);
    const std::vector<std::uint64_t> keys = keysHomedAt(m, 10, 16);
    ASSERT_EQ(keys.size(), 16u);

    Ref ref;
    for (std::uint64_t k : keys) {
        m[k] = k * 3;
        ref[k] = k * 3;
    }
    ASSERT_EQ(m.slotCount(), 64u);
    // Erase from the front, the middle and the end of the run; every
    // survivor must stay reachable from the shared home slot.
    for (std::size_t i : {0u, 7u, 15u, 3u, 8u}) {
        EXPECT_TRUE(m.erase(keys[i]));
        ref.erase(keys[i]);
        for (std::uint64_t k : keys)
            EXPECT_EQ(m.contains(k), ref.count(k) == 1) << "key " << k;
    }
    EXPECT_EQ(contents(m), contents(ref));
}

TEST(FlatMap, EraseAcrossTheWrapAround)
{
    Map m;
    m.reserve(40);
    const std::size_t last = m.slotCount() - 1;
    // A run homed at the last slot spills over into slots 0, 1, 2...
    const std::vector<std::uint64_t> tail = keysHomedAt(m, last, 4);
    // ...where it meets keys homed at slot 0 and 1.
    const std::vector<std::uint64_t> zero = keysHomedAt(m, 0, 2);
    const std::vector<std::uint64_t> one = keysHomedAt(m, 1, 2);
    ASSERT_EQ(tail.size(), 4u);
    ASSERT_EQ(zero.size(), 2u);
    ASSERT_EQ(one.size(), 2u);

    for (std::size_t first = 0; first < 8; ++first) {
        Map w = m;
        Ref ref;
        std::vector<std::uint64_t> all = tail;
        all.insert(all.end(), zero.begin(), zero.end());
        all.insert(all.end(), one.begin(), one.end());
        for (std::uint64_t k : all) {
            w[k] = k + 1;
            ref[k] = k + 1;
        }
        // Erase each entry of the wrapped run in turn, starting at a
        // different one each round; the rest must stay reachable.
        for (std::size_t i = 0; i < all.size(); ++i) {
            const std::uint64_t k = all[(first + i) % all.size()];
            EXPECT_TRUE(w.erase(k));
            ref.erase(k);
            for (std::uint64_t q : all)
                ASSERT_EQ(w.contains(q), ref.count(q) == 1)
                    << "round " << first << " step " << i << " key " << q;
        }
        EXPECT_TRUE(w.empty());
    }
}

TEST(FlatMap, GrowsAndKeepsEveryEntry)
{
    Map m;
    for (std::uint64_t k = 0; k < 20000; ++k)
        m[k * 64] = k; // block-aligned keys, as prefetchers see them
    EXPECT_EQ(m.size(), 20000u);
    EXPECT_GE(m.slotCount() * 3, m.size() * 4);
    for (std::uint64_t k = 0; k < 20000; ++k) {
        const std::uint64_t *v = m.find(k * 64);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, k);
    }
    EXPECT_FALSE(m.contains(64 * 20000));
    const std::size_t slots = m.slotCount();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.slotCount(), slots);
    EXPECT_FALSE(m.contains(0));
}

TEST(FlatMap, EraseIfOffersEachEntryExactlyOnce)
{
    // Near the 3/4 load limit, with runs wrapping the end of the array:
    // every erase shifts later entries back, possibly across the wrap,
    // and none may be skipped or offered twice.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        Map m;
        m.reserve(90); // 128 slots
        const std::size_t slots = m.slotCount();
        for (std::uint64_t k : keysHomedAt(m, slots - 2, 6))
            m[k] = 0;
        while (m.size() < 95)
            m[rng.below(4000)] = 0;
        if (seed % 2)
            m[kAllOnes] = 0;
        ASSERT_EQ(m.slotCount(), slots);

        const std::map<std::uint64_t, std::uint64_t> before = contents(m);
        std::map<std::uint64_t, unsigned> offered;
        const std::uint64_t salt = rng.next64();
        auto doomed = [&](std::uint64_t k) {
            return ((k ^ salt) * 0x2545f4914f6cdd1dull) >> 63;
        };
        const std::size_t erased =
            m.eraseIf([&](std::uint64_t k, std::uint64_t &) {
                ++offered[k];
                return doomed(k) != 0;
            });

        std::size_t want_erased = 0;
        for (const auto &[k, v] : before) {
            EXPECT_EQ(offered[k], 1u) << "seed " << seed << " key " << k;
            want_erased += doomed(k);
            EXPECT_EQ(m.contains(k), doomed(k) == 0) << "key " << k;
        }
        EXPECT_EQ(offered.size(), before.size());
        EXPECT_EQ(erased, want_erased);
        EXPECT_EQ(m.size(), before.size() - want_erased);
    }
}

TEST(FlatMap, CheckpointIsKeyOrderedWhateverTheHistory)
{
    Map a, b;
    for (std::uint64_t k = 0; k < 300; ++k)
        a[k * 7] = k;
    for (std::uint64_t k = 300; k-- > 0;)
        b[k * 7] = k;
    b[kAllOnes] = 1;
    b.erase(kAllOnes);
    ckpt::Ser sa, sb;
    a.visitState(sa);
    b.visitState(sb);
    EXPECT_EQ(sa.buffer(), sb.buffer());

    // save -> load -> save
    ckpt::Deser de(sa.buffer());
    Map c;
    c.visitState(de);
    ASSERT_TRUE(de.ok());
    ckpt::Ser sc;
    c.visitState(sc);
    EXPECT_EQ(sc.buffer(), sa.buffer());
}

/** The std::list + std::unordered_map LRU/FIFO the prefetchers used. */
struct RefLru {
    std::size_t cap;
    std::list<std::uint64_t> order;
    std::unordered_map<std::uint64_t, std::uint64_t> val;
};

TEST(LruTable, MatchesListLruAndFifo)
{
    for (bool lru : {true, false}) {
        for (std::size_t cap : {1u, 2u, 7u, 64u}) {
            Rng rng(cap * 2 + lru);
            LruTable<std::uint64_t, std::uint64_t> t(cap);
            RefLru ref{cap, {}, {}};
            std::vector<std::uint64_t> evicted, ref_evicted;
            for (int op = 0; op < 20000; ++op) {
                const std::uint64_t k = rng.below(cap * 3 + 2);
                const std::uint64_t v = rng.next64();
                // The access pattern of MISB's metadata cache (lru) and
                // Bingo's/STeMS's tables (fifo).
                if (std::uint64_t *hit = t.find(k)) {
                    ASSERT_TRUE(ref.val.count(k));
                    ASSERT_EQ(*hit, ref.val[k]);
                    *hit = v;
                    ref.val[k] = v;
                    if (lru) {
                        EXPECT_TRUE(t.touch(k));
                        ref.order.remove(k);
                        ref.order.push_back(k);
                    }
                    continue;
                }
                ASSERT_FALSE(ref.val.count(k));
                if (t.full()) {
                    evicted.push_back(t.popFront());
                    ref_evicted.push_back(ref.val[ref.order.front()]);
                    ref.val.erase(ref.order.front());
                    ref.order.pop_front();
                }
                t.pushBack(k, v);
                ref.order.push_back(k);
                ref.val[k] = v;
                ASSERT_EQ(t.size(), ref.order.size());
            }
            EXPECT_EQ(evicted, ref_evicted);
            std::vector<std::uint64_t> keys;
            t.forEach([&](std::uint64_t k, std::uint64_t) {
                keys.push_back(k);
            });
            EXPECT_EQ(keys, std::vector<std::uint64_t>(ref.order.begin(),
                                                       ref.order.end()));
            EXPECT_FALSE(t.touch(cap * 3 + 2)); // never inserted
        }
    }
}

TEST(LruTable, CheckpointRoundTripsAndRejectsABadKeyList)
{
    LruTable<std::uint64_t, std::uint64_t> t(8);
    for (std::uint64_t k = 0; k < 12; ++k) {
        if (t.full())
            t.popFront();
        t.pushBack(k * 5, k);
    }
    t.touch(20);
    ckpt::Ser s;
    t.visitState(s);

    LruTable<std::uint64_t, std::uint64_t> back(8);
    ckpt::Deser de(s.buffer());
    back.visitState(de);
    ASSERT_TRUE(de.ok());
    ckpt::Ser s2;
    back.visitState(s2);
    EXPECT_EQ(s2.buffer(), s.buffer());
    EXPECT_EQ(back.popFront(), 5u); // oldest after the touch: key 25

    // Same bytes into a smaller table: does not fit, typed failure.
    LruTable<std::uint64_t, std::uint64_t> small(4);
    ckpt::Deser de_small(s.buffer());
    small.visitState(de_small);
    EXPECT_FALSE(de_small.ok());

    // A key list naming a key the pairs lack.
    ckpt::Ser bad;
    bad.scalar(std::uint64_t{1});
    bad.scalar(std::uint64_t{3});
    bad.scalar(std::uint64_t{30});
    bad.scalar(std::uint64_t{1});
    bad.scalar(std::uint64_t{4});
    LruTable<std::uint64_t, std::uint64_t> wrong(8);
    ckpt::Deser de_bad(bad.buffer());
    wrong.visitState(de_bad);
    EXPECT_FALSE(de_bad.ok());
}

} // namespace
} // namespace rnr
