/**
 * @file
 * The span store and its Chrome trace-event writer (DESIGN.md §9).
 *
 * One record type, one record path, one writer. Every span — a
 * ScopedSpan in the suite/pool/channel/fuzz layers or a phase of a
 * sampled bxtd request — is recorded by recordSpan() into the calling
 * thread's own bounded circular buffer (spanBufferCap spans, the oldest
 * overwritten and counted as dropped when full). Each buffer sits
 * behind its own mutex, which only a collector ever contends for, so
 * recording threads share no lock. writeTrace() merges every buffer
 * into a `chrome://tracing` / Perfetto-loadable `trace.json` (complete
 * "X" events, microsecond timestamps anchored at process start).
 *
 * ScopedSpan is gated like the metrics registry: it records nothing
 * unless the `BXT_TRACE=<path>` environment variable is set (which also
 * installs an atexit flush to that path, with `%p` expanded to the pid
 * so parallel test processes do not clobber each other) or
 * `setTraceEnabled(true)` / `setTracePath(...)` is called. A disabled
 * ScopedSpan costs one relaxed atomic load and never takes a clock
 * sample. Server request spans are gated by the wire frame's sampled
 * bit instead (server/shard.cpp).
 */

#ifndef BXT_TELEMETRY_TRACE_H
#define BXT_TELEMETRY_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bxt::telemetry {

namespace detail {
extern std::atomic<bool> traceOn;
} // namespace detail

/** True when ScopedSpan recording is active (constant-false when
 *  compiled out). */
inline bool
traceEnabled()
{
#ifdef BXT_NO_TELEMETRY
    return false;
#else
    return detail::traceOn.load(std::memory_order_relaxed);
#endif
}

/** Programmatic enable/disable (overrides the environment). */
void setTraceEnabled(bool on);

/** Output path from BXT_TRACE / setTracePath ("" when unset). */
std::string tracePath();

/** Set the output path; a non-empty path also enables tracing. */
void setTracePath(const std::string &path);

/** Microseconds since the process-wide trace epoch (steady clock). */
std::uint64_t nowMicros();

/** Small dense id for the calling thread (chrome trace `tid`). */
std::uint32_t currentThreadId();

/** One completed span. */
struct TraceEvent
{
    std::string name;
    std::string category;
    std::uint32_t tid = 0; ///< Set by recordSpan (the recording thread).
    std::uint64_t startUs = 0;
    std::uint64_t durationUs = 0;

    // Request fields of a sampled server request (traceId 0 = none; the
    // writer then emits no `args`).
    std::uint64_t traceId = 0;  ///< Wire trace context id.
    std::uint64_t spanId = 0;   ///< Client span id.
    std::uint16_t streamId = 0; ///< Tenant/stream tag (0 = none).
    std::uint8_t opcode = 0;    ///< Wire opcode of the request.
    std::uint32_t txCount = 0;  ///< Transactions in the request body.

    bool operator==(const TraceEvent &other) const = default;
};

/**
 * Spans each recording thread keeps. A bxtd shard records five spans
 * per sampled request, so this holds a 20k-request run sampled at 5 %
 * on a single shard (about 5,000 spans) with room to spare; at about
 * 112 bytes a span, a recording thread's buffer tops out near 3.5 MiB.
 */
constexpr std::size_t spanBufferCap = 1u << 15;

/**
 * Record @p event (its tid is overwritten with the calling thread's)
 * into the calling thread's buffer, registering the buffer on the
 * thread's first record. A full buffer overwrites its oldest span and
 * counts it as dropped. Request spans (traceId != 0) also bump the
 * `bxt.server.spans_recorded` counter, and `bxt.server.spans_dropped`
 * when they overwrite another request span.
 */
void recordSpan(const TraceEvent &event);

/** Spans recorded since start (or the last clearTraceBuffer), exact. */
std::uint64_t recordedSpans();

/** Spans overwritten before any write, exact. recordedSpans() ==
 *  traceEvents().size() + droppedSpans() whenever no thread records. */
std::uint64_t droppedSpans();

/** Copy of every resident span: per thread, oldest first. */
std::vector<TraceEvent> traceEvents();

/** Drop every recorded span and zero the counts. */
void clearTraceBuffer();

/**
 * Write every resident span as a Chrome trace-event JSON object
 * (`{"traceEvents": [...], "otherData": {"droppedSpans": N}}`); request
 * spans carry `trace_id`/`span_id`/`stream`/`op`/`txs` in `args`. The
 * write is atomic (`.tmp` + rename). Returns false (writing nothing)
 * when tracing is disabled or the file cannot be written.
 */
bool writeTrace(const std::string &path);

/**
 * RAII span: samples the clock on construction and records on
 * destruction. Construction with tracing disabled is a no-op (no clock
 * sample, no allocation).
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, const char *category = "bxt")
    {
        if (traceEnabled())
            begin(name, category);
    }

    /** Dynamic-name overload for per-spec / per-unit spans. */
    ScopedSpan(std::string name, const char *category)
    {
        if (traceEnabled())
            begin(std::move(name), category);
    }

    ~ScopedSpan()
    {
        if (active_) {
            event_.durationUs = nowMicros() - event_.startUs;
            recordSpan(event_);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Wall-clock so far; 0 when the span is inactive. */
    std::uint64_t elapsedUs() const
    {
        return active_ ? nowMicros() - event_.startUs : 0;
    }

  private:
    void begin(std::string name, const char *category)
    {
        event_.name = std::move(name);
        event_.category = category;
        event_.startUs = nowMicros();
        active_ = true;
    }

    TraceEvent event_;
    bool active_ = false;
};

} // namespace bxt::telemetry

#endif // BXT_TELEMETRY_TRACE_H
