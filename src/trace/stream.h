/**
 * @file
 * Trace-stream abstractions.
 *
 * A TraceStream produces TraceRecords one at a time. Synthetic workload
 * models, file readers and the Monster capture model all implement this
 * interface, so simulators are agnostic to where references come from —
 * exactly the property that let the original study mix trace-driven and
 * trap-driven methodologies.
 */

#ifndef IBS_TRACE_STREAM_H
#define IBS_TRACE_STREAM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/record.h"

namespace ibs {

/** Abstract source of trace records. */
class TraceStream
{
  public:
    virtual ~TraceStream() = default;

    /**
     * Produce the next record.
     *
     * @param rec receives the record on success
     * @retval true a record was produced
     * @retval false the stream is exhausted
     */
    virtual bool next(TraceRecord &rec) = 0;

    /** Restart from the beginning if the source supports it. */
    virtual void reset() = 0;
};

/** Stream over an in-memory vector of records. */
class VectorTraceStream : public TraceStream
{
  public:
    explicit VectorTraceStream(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {}

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= records_.size())
            return false;
        rec = records_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    const std::vector<TraceRecord> &records() const { return records_; }

  private:
    std::vector<TraceRecord> records_;
    size_t pos_ = 0;
};

/** Drain an entire stream into a vector (test/diagnostic helper). */
std::vector<TraceRecord> drain(TraceStream &stream,
                               uint64_t max_records = UINT64_MAX);

} // namespace ibs

#endif // IBS_TRACE_STREAM_H
