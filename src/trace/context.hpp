/**
 * @file
 * TraceContext: the per-simulation event bus.
 *
 * Instrumented code holds a `TraceContext *` that is nullptr in
 * ordinary runs — the DOL_TRACE_EVENT macro compiles to a single
 * pointer test on the hot path. When a context is attached, events
 * fan out to an optional sink (binary file writer or in-memory
 * vector) and are tallied per type; exportEventCounts() folds the
 * tallies into the counter registry that feeds golden-trace
 * snapshots and the dol-sweep-v1 "counters" section.
 *
 * One context belongs to exactly one Simulator: parallel sweep jobs
 * each own a private context, which is what keeps enabled traces
 * byte-identical between `--jobs 1` and `--jobs N`.
 */

#ifndef DOL_TRACE_CONTEXT_HPP
#define DOL_TRACE_CONTEXT_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "trace/counters.hpp"
#include "trace/event.hpp"
#include "trace/trace_io.hpp"

namespace dol
{

/** Destination of recorded events. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void append(const TraceEvent &event) = 0;
};

/** Collects events in memory (unit tests, golden snapshots). */
class MemoryTraceSink : public TraceSink
{
  public:
    void append(const TraceEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<TraceEvent> events;
};

/** Streams events into a binary TraceWriter. */
class WriterTraceSink : public TraceSink
{
  public:
    explicit WriterTraceSink(TraceWriter &writer) : _writer(&writer) {}

    void append(const TraceEvent &event) override
    {
        _writer->append(event);
    }

  private:
    TraceWriter *_writer;
};

class TraceContext
{
  public:
    /** A context with no sink still tallies event counts. */
    TraceContext() = default;
    explicit TraceContext(TraceSink *sink) : _sink(sink) {}

    void setSink(TraceSink *sink) { _sink = sink; }
    TraceSink *sink() const { return _sink; }

    void
    record(TraceEventType type, Cycle cycle, Addr addr = 0,
           std::uint64_t aux = 0, std::uint8_t comp = 0,
           std::uint8_t level = 0, std::uint8_t arg = 0)
    {
        ++_eventCounts[static_cast<unsigned>(type)];
        if (_sink) {
            TraceEvent event;
            event.cycle = cycle;
            event.addr = addr;
            event.aux = aux;
            event.type = type;
            event.comp = comp;
            event.level = level;
            event.arg = arg;
            _sink->append(event);
        }
    }

    std::uint64_t
    eventCount(TraceEventType type) const
    {
        return _eventCounts[static_cast<unsigned>(type)];
    }

    std::uint64_t
    totalEvents() const
    {
        std::uint64_t total = 0;
        for (const std::uint64_t count : _eventCounts)
            total += count;
        return total;
    }

    /** Fold the per-type event tallies into @p registry ("trace"). */
    void exportEventCounts(CounterRegistry &registry) const;

  private:
    TraceSink *_sink = nullptr;
    std::array<std::uint64_t, kNumTraceEventTypes> _eventCounts{};
};

} // namespace dol

/**
 * Emit an event through a possibly-null `TraceContext *`. The null
 * test is the entire disabled-path cost: the arguments are evaluated
 * only when a context is attached.
 */
#define DOL_TRACE_EVENT(ctx, ...)                                      \
    do {                                                               \
        if ((ctx) != nullptr)                                          \
            (ctx)->record(__VA_ARGS__);                                \
    } while (0)

#endif // DOL_TRACE_CONTEXT_HPP
