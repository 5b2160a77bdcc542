/**
 * @file
 * Streaming record feed for the core model.
 *
 * CoreModel historically consumed a fully materialised TraceBuffer; a
 * multi-million-record iteration therefore had to be resident in memory
 * per core before simulation could start.  TraceSource abstracts the
 * feed so a core can equally pull records from an in-memory buffer
 * (BufferSource, the capture path) or block-by-block from a compressed
 * v2 trace file (tracestore/trace_reader.h, the replay path) with only
 * one decoded block resident per core.
 *
 * The contract is one virtual, takeBlock(): the source hands back a
 * pointer to a run of records in its own storage (zero-copy for
 * BufferSource and StreamingTraceReader) and marks that run consumed.
 * The stream is single-pass; an empty run means it is exhausted.
 */
#ifndef RNR_TRACE_TRACE_SOURCE_H
#define RNR_TRACE_TRACE_SOURCE_H

#include <cstddef>

#include "trace/trace_buffer.h"

namespace rnr {

/** Single-pass record stream consumed by one core. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Consumes a run of records at once: returns a pointer to @p n
     * consecutive records (valid until the next call on this source)
     * and advances past them, or nullptr with n = 0 at end of stream.
     */
    virtual const TraceRecord *takeBlock(std::size_t &n) = 0;
};

/** TraceSource over a caller-owned, fully materialised buffer. */
class BufferSource final : public TraceSource
{
  public:
    BufferSource() = default;
    explicit BufferSource(const TraceBuffer *buf) : buf_(buf) {}

    /** Zero-copy: the whole remaining buffer is one run. */
    const TraceRecord *
    takeBlock(std::size_t &n) override
    {
        if (!buf_ || pos_ >= buf_->size()) {
            n = 0;
            return nullptr;
        }
        const TraceRecord *run = buf_->records().data() + pos_;
        n = buf_->size() - pos_;
        pos_ = buf_->size();
        return run;
    }

  private:
    const TraceBuffer *buf_ = nullptr;
    std::size_t pos_ = 0;
};

} // namespace rnr

#endif // RNR_TRACE_TRACE_SOURCE_H
