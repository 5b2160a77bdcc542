/**
 * @file
 * Set-associative cache model with timestamped fills.
 *
 * The cache is functional (it tracks exactly which blocks are resident)
 * but every line remembers the tick at which its data actually arrived
 * (fill_time).  A demand access that finds a line whose fill is still in
 * the future models a "late prefetch": the requester waits until the fill
 * tick rather than paying the full miss path.  Lines also carry prefetch
 * provenance so useful/useless prefetch statistics fall out of ordinary
 * hit/evict bookkeeping.
 */
#ifndef RNR_MEM_CACHE_H
#define RNR_MEM_CACHE_H

#include <cstdint>
#include <vector>

#include "ckpt/serde.h"
#include "mem/mshr.h"
#include "sim/attrib.h"
#include "sim/config.h"
#include "sim/probes.h"
#include "sim/stats.h"
#include "sim/trace_event.h"
#include "sim/types.h"

namespace rnr {

/** One cache line's bookkeeping state. */
struct CacheLine {
    Addr tag = 0;
    Tick fill_time = 0;      ///< Tick at which the data arrived.
    std::uint64_t lru = 0;   ///< Higher = more recently used.
    std::uint32_t site = 0;  ///< Attribution site id (sim/attrib.h).
    std::uint8_t rrpv = 3;   ///< SRRIP re-reference prediction value.
    bool valid = false;
    bool dirty = false;
    bool prefetched = false; ///< Brought in by a prefetch...
    bool referenced = false; ///< ...and since touched by a demand access.

    /** Field-wise (the struct has padding, so no pod() bulk path). */
    template <class Ar>
    void
    visitState(Ar &ar)
    {
        ar.scalar(tag);
        ar.scalar(fill_time);
        ar.scalar(lru);
        ar.scalar(site);
        ar.scalar(rrpv);
        ar.scalar(valid);
        ar.scalar(dirty);
        ar.scalar(prefetched);
        ar.scalar(referenced);
    }
};

/** What insert() displaced, so the caller can issue writebacks. */
struct EvictResult {
    Addr block = 0;               ///< Block number of the victim.
    bool valid = false;
    bool dirty = false;
    bool prefetched_unused = false; ///< Victim was an unreferenced prefetch.
};

/**
 * Pre-declared per-access counter handles of one cache level.
 *
 * Declared once against the cache's StatGroup so the access path bumps
 * plain uint64_t cells; the string names stay visible through
 * StatGroup::get()/dump() for tests and the harness.  The MSHR-merge /
 * target-structure / prefetch-issue counters are bumped by MemorySystem,
 * which owns the cross-level protocol those events belong to.
 */
struct CacheCounters {
    explicit CacheCounters(StatGroup &g);

    // Bumped by Cache itself.
    Counter &accesses;
    Counter &hits;
    Counter &misses;
    Counter &hits_on_inflight_fill;
    Counter &prefetch_useful;
    Counter &evictions;
    Counter &writebacks;
    Counter &prefetch_evicted_unused;
    Counter &fills_demand;
    Counter &fills_prefetch;

    // Bumped by MemorySystem on this cache's behalf.
    Counter &mshr_merges;
    Counter &mshr_full_stalls;
    Counter &demand_merged_into_prefetch;
    Counter &target_accesses;
    Counter &target_merges;
    Counter &target_misses;
    Counter &prefetches_issued;
    Counter &prefetch_redundant;
    Counter &prefetch_mshr_full;
};

/** A set-associative, LRU-replacement cache level.
 *
 * The lookup/insert methods are defined inline: they run up to three
 * times per demand access (L1, L2, LLC) and are the memory system's
 * hottest leaves, so keeping them visible to MemorySystem's translation
 * unit removes a cross-TU call per probe (docs/PERF.md section 3). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Demand lookup: updates LRU and reference bits.
     * @return the resident line, or nullptr on miss.
     */
    CacheLine *
    access(Addr block, Tick now)
    {
        ++ctr_.accesses;
        CacheLine *set = &lines_[setIndex(block) * cfg_.ways];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            CacheLine &line = set[w];
            if (line.valid && line.tag == block) {
                line.lru = ++lru_clock_;
                line.rrpv = 0; // SRRIP: proven reuse -> near re-reference
                if (line.prefetched && !line.referenced) {
                    ++ctr_.prefetch_useful;
                    if (at_)
                        at_->onUseful(line.site, block);
                }
                line.referenced = true;
                if (line.fill_time > now)
                    ++ctr_.hits_on_inflight_fill;
                ++ctr_.hits;
                return &line;
            }
        }
        ++ctr_.misses;
        if (at_)
            at_->onDemandMiss(track_, block);
        if (tr_)
            tr_->emit(track_, TraceEventType::CacheMiss, now, block,
                      tr_level_);
        return nullptr;
    }

    /** Lookup without side effects (no LRU update). */
    const CacheLine *
    peek(Addr block) const
    {
        const CacheLine *set = &lines_[setIndex(block) * cfg_.ways];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (set[w].valid && set[w].tag == block)
                return &set[w];
        }
        return nullptr;
    }

    /**
     * Installs @p block, evicting the set's LRU victim.
     * @param fill_time tick at which the block's data arrives.
     * @param prefetched the fill was triggered by a prefetch.
     * @param site attribution site id of the issuing prefetch (0 for
     *        demand fills; sim/attrib.h), remembered on the line.
     * @return description of the displaced victim.
     */
    EvictResult
    insert(Addr block, Tick fill_time, bool prefetched, bool dirty,
           std::uint32_t site = 0)
    {
        CacheLine *set = &lines_[setIndex(block) * cfg_.ways];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            CacheLine &line = set[w];
            if (line.valid && line.tag == block) {
                // Re-insert of a resident block (e.g. prefetch raced a
                // demand fill): refresh the fill time only if it
                // arrives earlier.
                if (fill_time < line.fill_time)
                    line.fill_time = fill_time;
                line.dirty = line.dirty || dirty;
                return {};
            }
        }

        // Victim selection: prefer an invalid way; otherwise the LRU
        // line, or under SRRIP the first line predicted "distant"
        // (rrpv == 3), ageing the set until one exists.
        CacheLine *victim = nullptr;
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
        }
        if (!victim && cfg_.replacement == ReplacementPolicy::Srrip) {
            for (;;) {
                for (unsigned w = 0; w < cfg_.ways && !victim; ++w) {
                    if (set[w].rrpv >= 3)
                        victim = &set[w];
                }
                if (victim)
                    break;
                for (unsigned w = 0; w < cfg_.ways; ++w)
                    ++set[w].rrpv;
            }
        } else if (!victim) {
            victim = &set[0];
            for (unsigned w = 0; w < cfg_.ways; ++w) {
                if (set[w].lru < victim->lru)
                    victim = &set[w];
            }
        }

        EvictResult ev;
        if (victim->valid) {
            ev.valid = true;
            ev.block = victim->tag;
            ev.dirty = victim->dirty;
            ev.prefetched_unused =
                victim->prefetched && !victim->referenced;
            ++ctr_.evictions;
            if (ev.dirty)
                ++ctr_.writebacks;
            if (ev.prefetched_unused) {
                ++ctr_.prefetch_evicted_unused;
                if (at_)
                    at_->onEvictedUnused(victim->site, victim->tag);
            } else if (at_ && prefetched) {
                // A prefetch displaced a line the demand stream owned
                // (demand-filled, or a prefetch that proved useful):
                // remember the victim so a re-miss charges pollution.
                at_->onPrefetchEvictsDemand(track_, site,
                                            victim->tag);
            }
        }

        victim->tag = block;
        victim->valid = true;
        victim->dirty = dirty;
        victim->prefetched = prefetched;
        victim->referenced = false;
        victim->site = site;
        victim->fill_time = fill_time;
        victim->lru = ++lru_clock_;
        victim->rrpv = 2; // SRRIP insertion: "long" re-reference interval
        ++(prefetched ? ctr_.fills_prefetch : ctr_.fills_demand);
        if (tr_)
            tr_->emit(track_, TraceEventType::CacheFill, fill_time,
                      block, tr_level_ + (prefetched ? 4u : 0u));
        return ev;
    }

    /** Marks a resident block dirty (store hit); no-op when absent. */
    void
    markDirty(Addr block, Tick now)
    {
        CacheLine *line = access(block, now);
        if (line)
            line->dirty = true;
    }

    /** Invalidates every line and clears the MSHR file. */
    void reset();

    /** Attaches @p p (sim/probes.h): this level's miss/fill events and
     *  both MSHR files' go to p.tr's @p track, tagged with @p level
     *  (0 = L1, 1 = L2, 2 = LLC); attribution events (useful hits,
     *  unused evictions, pollution-filter traffic) go to p.at as core
     *  @p track — only the private L2s get p.at, and a private level's
     *  track is its core.  p.tm is unused: the memory system registers
     *  this level's probes. */
    void attach(const Probes &p, std::uint16_t track, std::uint8_t level);

    /** Number of valid lines (tests and occupancy probes). */
    std::size_t residentCount() const;

    const CacheConfig &config() const { return cfg_; }
    Mshr &mshr() { return mshr_; }
    /** In-flight prefetches (separate file, so prefetch lookahead is not
     *  bounded by the demand MSHRs — ChampSim's PQ plays this role). */
    Mshr &prefetchQueue() { return pq_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    CacheCounters &ctr() { return ctr_; }
    const CacheCounters &ctr() const { return ctr_; }

    /** Checkpoint visitor: line array, LRU clock, both MSHR files and
     *  the stat group.  Geometry (cfg_, set_mask_) and trace routing
     *  are configuration — the restore side rebuilds them and seq()
     *  restores the same sets x ways count. */
    template <class Ar>
    void
    visitState(Ar &ar)
    {
        ckpt::seq(ar, lines_);
        ar.scalar(lru_clock_);
        mshr_.visitState(ar);
        pq_.visitState(ar);
        stats_.visitState(ar);
    }

  private:
    std::size_t setIndex(Addr block) const { return block & set_mask_; }

    CacheConfig cfg_;
    std::size_t set_mask_;
    std::vector<CacheLine> lines_; ///< sets x ways, row-major.
    std::uint64_t lru_clock_ = 0;
    Mshr mshr_;
    Mshr pq_;
    StatGroup stats_;
    CacheCounters ctr_; ///< Handles into stats_; keep declared after it.
    TraceCollector *tr_ = nullptr; ///< Null unless tracing is enabled.
    std::uint16_t track_ = 0; ///< Trace track; also the attribution core.
    std::uint8_t tr_level_ = 0;
    AttribCollector *at_ = nullptr; ///< Null unless attribution is on.
};

} // namespace rnr

#endif // RNR_MEM_CACHE_H
