/**
 * @file
 * The one attachment point for the simulator's three observers: the
 * event trace (sim/trace_event.h), periodic telemetry samples
 * (sim/timeseries.h) and prefetch-quality attribution (sim/attrib.h).
 *
 * Every aggregating component (System, CoreModel, MemorySystem, Cache,
 * Prefetcher) takes the bundle through a single attach call and keeps
 * the collectors it uses; a collector it has no hook for is ignored.
 * The attach rule, stated once here:
 *
 *  - **The caller owns the collectors.**  Components keep raw pointers
 *    and never delete them.
 *  - **Null means off.**  Each hook tests its one pointer with one
 *    predictable branch; `attach({})` detaches everything.  An attach
 *    replaces all three pointers, so pass every collector the run
 *    wants in one bundle.
 *  - **Components must not outlive the collectors** they are attached
 *    to (or must be re-attached to `{}` first).
 *  - **A prefetcher installed later inherits the probes.**
 *    MemorySystem::setPrefetcher hands the current bundle to every new
 *    install, so attach order against prefetcher installs is free.
 *  - **Attribution attaches to the private L2s only** (and to the
 *    prefetchers).  Their counters are the ones IterStats aggregates,
 *    which is what keeps the attribution totals equal to IterStats;
 *    the L1s and the LLC get a trace-only bundle.
 *
 * Observation only: no collector changes a simulated counter (the
 * traced, sampled and attributed bit-equality tests enforce it).
 */
#ifndef RNR_SIM_PROBES_H
#define RNR_SIM_PROBES_H

namespace rnr {

class AttribCollector;
class TelemetrySampler;
class TraceCollector;

/** The caller-owned collectors one simulation is observed by. */
struct Probes {
    TraceCollector *tr = nullptr;   ///< Event trace; null = untraced.
    TelemetrySampler *tm = nullptr; ///< Samples; null = unsampled.
    AttribCollector *at = nullptr;  ///< Attribution; null = off.
};

} // namespace rnr

#endif // RNR_SIM_PROBES_H
