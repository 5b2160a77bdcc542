#include "cpu/system.h"

#include <algorithm>
#include <cassert>

namespace rnr {

System::System(const MachineConfig &cfg) : cfg_(cfg), mem_(cfg)
{
    for (unsigned c = 0; c < cfg.cores; ++c)
        cores_.push_back(std::make_unique<CoreModel>(c, cfg.core, &mem_));
}

IterationResult
System::run(const std::vector<const TraceBuffer *> &traces)
{
    assert(traces.size() == cores_.size());
    // setTrace wraps each buffer in the core's own BufferSource, so the
    // feed outlives this call (tests poke core(i).done() afterwards).
    for (unsigned c = 0; c < cores_.size(); ++c)
        cores_[c]->setTrace(traces[c]);
    return drive();
}

IterationResult
System::runStreaming(const std::vector<TraceSource *> &sources)
{
    assert(sources.size() == cores_.size());
    for (unsigned c = 0; c < cores_.size(); ++c)
        cores_[c]->setSource(sources[c]);
    return drive();
}

IterationResult
System::drive()
{
    IterationResult result;
    Tick barrier = 0;
    for (auto &core : cores_)
        barrier = std::max(barrier, core->finishTime());
    for (auto &core : cores_)
        core->syncTo(barrier);
    result.start = barrier;

    std::uint64_t instrs_before = 0;
    for (auto &core : cores_)
        instrs_before += core->instructionsRetired();

    if (cores_.size() == 1) {
        // One core needs no interleaving: drain it run by run.  Each
        // stepRun() call executes a whole staged block with no
        // scheduling checks in between.
        CoreModel &core = *cores_[0];
        while (core.stepRun(static_cast<std::size_t>(-1)) != 0) {
        }
    } else {
        // Interleave by local time.  Batching a few records per pick
        // keeps scheduling overhead low without letting any core run
        // far ahead.  The quota loop below consumes exactly kBatch
        // records per pick even when a staged run ends mid-quantum, so
        // the interleave, and therefore the shared LLC/DRAM request
        // order, does not depend on where trace blocks end.
        constexpr std::size_t kBatch = 8;
        for (;;) {
            CoreModel *next = nullptr;
            for (auto &core : cores_) {
                if (core->done())
                    continue;
                if (!next || core->time() < next->time())
                    next = core.get();
            }
            if (!next)
                break;
            std::size_t left = kBatch;
            while (left != 0) {
                const std::size_t did = next->stepRun(left);
                if (did == 0)
                    break;
                left -= did;
            }
        }
    }

    Tick end = barrier;
    std::uint64_t instrs_after = 0;
    for (auto &core : cores_) {
        end = std::max(end, core->finishTime());
        instrs_after += core->instructionsRetired();
    }
    result.end = end;
    result.instructions = instrs_after - instrs_before;
    return result;
}

} // namespace rnr
