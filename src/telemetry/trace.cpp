#include "telemetry/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/json.h"
#include "telemetry/metrics.h"

namespace bxt::telemetry {

namespace {

/** Process-start anchor for span timestamps. */
const std::chrono::steady_clock::time_point traceEpoch =
    std::chrono::steady_clock::now();

/**
 * One thread's spans: a circular buffer that grows to spanBufferCap and
 * then overwrites its oldest entry (at `next`). The owning thread is the
 * only recorder; the mutex is there for collectors.
 */
struct ThreadSpans
{
    std::mutex mutex;
    std::vector<TraceEvent> ring;
    std::size_t next = 0;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
};

struct TraceState
{
    std::mutex mutex;
    std::string path;
    /** Every buffer ever registered; buffers outlive their threads. */
    std::vector<std::unique_ptr<ThreadSpans>> buffers;
};

TraceState &
state()
{
    // Never destroyed: spans may be recorded from static destructors
    // and shard threads racing the atexit flush.
    static TraceState *instance = new TraceState();
    return *instance;
}

ThreadSpans &
threadSpans()
{
    thread_local ThreadSpans *spans = nullptr;
    if (spans == nullptr) {
        auto owned = std::make_unique<ThreadSpans>();
        spans = owned.get();
        TraceState &ts = state();
        std::lock_guard<std::mutex> lock(ts.mutex);
        ts.buffers.push_back(std::move(owned));
    }
    return *spans;
}

/** Run @p fn on every buffer, each under its own lock. */
template <typename Fn>
void
forEachBuffer(Fn &&fn)
{
    TraceState &ts = state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    for (const auto &spans : ts.buffers) {
        std::lock_guard<std::mutex> buffer_lock(spans->mutex);
        fn(*spans);
    }
}

/** Append @p spans' resident events to @p out, oldest first. */
void
appendResident(const ThreadSpans &spans, std::vector<TraceEvent> &out)
{
    out.insert(out.end(), spans.ring.begin() + spans.next,
               spans.ring.end());
    out.insert(out.end(), spans.ring.begin(),
               spans.ring.begin() + spans.next);
}

// Pinned to the default registry: a shard's private registry dies with
// its Server, the default one outlives every recording thread. Bound on
// the first request span so ScopedSpan-only runs register neither.
Counter &
serverSpansRecorded()
{
    static Counter &counter =
        defaultRegistry().counter("bxt.server.spans_recorded");
    return counter;
}

Counter &
serverSpansDropped()
{
    static Counter &counter =
        defaultRegistry().counter("bxt.server.spans_dropped");
    return counter;
}

/** Expand "%p" in a BXT_TRACE path to the pid (one expansion). */
std::string
expandPath(std::string path)
{
    const std::size_t pos = path.find("%p");
    if (pos != std::string::npos) {
        path.replace(pos, 2, std::to_string(
#ifdef _WIN32
                                 0
#else
                                 static_cast<long>(::getpid())
#endif
                                 ));
    }
    return path;
}

void
flushAtExit()
{
    const std::string path = tracePath();
    if (!path.empty())
        writeTrace(path);
}

/** Reads BXT_TRACE once at static init; installs the atexit flush. */
bool
initFromEnv()
{
    const char *env = std::getenv("BXT_TRACE");
    if (env == nullptr || *env == '\0')
        return false;
    state().path = expandPath(env);
    std::atexit(flushAtExit);
    return true;
}

} // namespace

namespace detail {
std::atomic<bool> traceOn{initFromEnv()};
} // namespace detail

void
setTraceEnabled(bool on)
{
    detail::traceOn.store(on, std::memory_order_relaxed);
}

std::string
tracePath()
{
    TraceState &ts = state();
    std::lock_guard<std::mutex> lock(ts.mutex);
    return ts.path;
}

void
setTracePath(const std::string &path)
{
    {
        TraceState &ts = state();
        std::lock_guard<std::mutex> lock(ts.mutex);
        ts.path = expandPath(path);
    }
    if (!path.empty())
        setTraceEnabled(true);
}

std::uint64_t
nowMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - traceEpoch)
            .count());
}

std::uint32_t
currentThreadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
recordSpan(const TraceEvent &event)
{
    ThreadSpans &spans = threadSpans();
    bool evicted_request = false;
    {
        std::lock_guard<std::mutex> lock(spans.mutex);
        ++spans.recorded;
        if (spans.ring.size() < spanBufferCap) {
            spans.ring.push_back(event);
            spans.ring.back().tid = currentThreadId();
        } else {
            TraceEvent &slot = spans.ring[spans.next];
            evicted_request = slot.traceId != 0;
            slot = event;
            slot.tid = currentThreadId();
            spans.next = (spans.next + 1) % spanBufferCap;
            ++spans.dropped;
        }
    }
    if (event.traceId != 0)
        serverSpansRecorded().add(1);
    if (evicted_request)
        serverSpansDropped().add(1);
}

std::uint64_t
recordedSpans()
{
    std::uint64_t total = 0;
    forEachBuffer([&](const ThreadSpans &spans) { total += spans.recorded; });
    return total;
}

std::uint64_t
droppedSpans()
{
    std::uint64_t total = 0;
    forEachBuffer([&](const ThreadSpans &spans) { total += spans.dropped; });
    return total;
}

std::vector<TraceEvent>
traceEvents()
{
    std::vector<TraceEvent> events;
    forEachBuffer(
        [&](const ThreadSpans &spans) { appendResident(spans, events); });
    return events;
}

void
clearTraceBuffer()
{
    forEachBuffer([](ThreadSpans &spans) {
        spans.ring = {};
        spans.next = 0;
        spans.recorded = 0;
        spans.dropped = 0;
    });
}

bool
writeTrace(const std::string &path)
{
    if (!traceEnabled() || path.empty())
        return false;

    // Events and the drop count come from one pass, so every span a
    // buffer ever held is in the file or in droppedSpans, never both.
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    forEachBuffer([&](const ThreadSpans &spans) {
        appendResident(spans, events);
        dropped += spans.dropped;
    });

    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.beginArray("traceEvents");
    for (const TraceEvent &event : events) {
        w.beginObject();
        w.kv("name", event.name);
        w.kv("cat", event.category);
        w.kv("ph", "X");
        w.kv("ts", event.startUs);
        w.kv("dur", event.durationUs);
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::uint64_t>(event.tid));
        if (event.traceId != 0) {
            char trace_hex[20];
            std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                          static_cast<unsigned long long>(event.traceId));
            w.beginObject("args");
            w.kv("trace_id", trace_hex);
            w.kv("span_id", event.spanId);
            w.kv("stream", static_cast<std::uint64_t>(event.streamId));
            w.kv("op", static_cast<std::uint64_t>(event.opcode));
            w.kv("txs", static_cast<std::uint64_t>(event.txCount));
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.kv("displayTimeUnit", "ms");
    w.beginObject("otherData");
    w.kv("droppedSpans", dropped);
    w.kv("tool", "bxt");
    w.endObject();
    w.endObject();

    // Atomic publish: a SIGTERM-time flush interrupted mid-write must
    // not leave a truncated trace behind the final rename.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return false;
        out << w.str() << '\n';
        if (!out.good())
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace bxt::telemetry
