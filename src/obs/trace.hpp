#pragma once
/// \file trace.hpp
/// \brief Opt-in span tracer with Chrome trace-event export.
///
/// The tracer records timed spans (RAII obs::Span scopes and explicit
/// complete events) and instant events into per-thread buffers; drain()
/// merges them into one run-wide, time-sorted trace that
/// write_chrome_trace() serializes as Chrome trace-event JSON - loadable
/// directly in chrome://tracing or https://ui.perfetto.dev.
///
/// Design constraints, in order:
///
///  * Disabled cost ~ zero. Tracing is off by default; every instrumentation
///    site first reads one relaxed atomic flag (Tracer::enabled()) and does
///    nothing else when it is false - no clock reads, no string
///    construction, no allocation. The bench-smoke CI job gates on this
///    in absolute ns per disarmed span (BM_ObsDisarmedSpan).
///  * Purely observational. Recording never touches RNG streams, engine
///    retirement order or reduction order, so results are bit-identical
///    with tracing on or off (asserted in tests/test_async.cpp and
///    tests/test_obs.cpp).
///  * TSan-clean. Each thread appends to its own buffer under that buffer's
///    own util::Mutex (uncontended in steady state); drain() walks the
///    buffer registry and takes each buffer lock in turn.
///
/// Thread ids in the trace are small integers assigned in first-record
/// order, not OS tids - stable enough to read and compare across runs.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ypm::obs {

/// One span argument; values are doubles (counts, rates, seconds) - enough
/// for every diagnostic the engine/yield layers emit, and trivially JSON.
struct TraceArg {
    const char* key = "";
    double value = 0.0;
};

/// One recorded event. `dur_ns` > 0 or == 0 with instant == false is a
/// complete ("X") event; instant == true is an instant ("i") event.
struct TraceEvent {
    const char* name = "";     ///< static string (instrumentation literals)
    const char* category = ""; ///< static string
    util::TickNs start_ns = 0;
    util::TickNs dur_ns = 0;
    std::uint32_t tid = 0;
    bool instant = false;
    std::vector<TraceArg> args;
};

/// Process-wide trace collector. All mutation goes through the static
/// helpers; the instance API covers drain/clear and serialization.
class Tracer {
public:
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// The one check every instrumentation site makes first. Relaxed load:
    /// a site racing a set_enabled() flip may record one event more or
    /// fewer, which only affects the trace, never results.
    [[nodiscard]] static bool enabled() {
        return enabled_.load(std::memory_order_relaxed);
    }
    static void set_enabled(bool on) {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /// Append one event to the calling thread's buffer. No-op when tracing
    /// is disabled (sites normally check enabled() first and never build
    /// the event; this re-check just makes late racers harmless).
    static void record(TraceEvent event);

    /// Record a complete ("X") event from explicit tick stamps - for spans
    /// whose begin/end straddle scopes (e.g. an engine batch: stamped at
    /// submit, recorded at retirement).
    static void record_complete(const char* name, const char* category,
                                util::TickNs start_ns, util::TickNs end_ns,
                                std::initializer_list<TraceArg> args = {});

    /// Record an instant ("i") event at now. Arguments are evaluated by the
    /// caller, so guard call sites with `if (Tracer::enabled())`.
    static void instant(const char* name, const char* category,
                        std::initializer_list<TraceArg> args = {});

    /// Move every buffered event out, merged and sorted by (start, tid).
    [[nodiscard]] std::vector<TraceEvent> drain();

    /// Discard every buffered event.
    void clear();

    [[nodiscard]] static Tracer& global();

private:
    Tracer() = default;

    struct ThreadBuffer {
        util::Mutex mutex;
        std::vector<TraceEvent> events YPM_GUARDED_BY(mutex);
        std::uint32_t tid = 0; ///< assigned once at registration
    };

    /// The calling thread's buffer, registered with the global tracer on
    /// first use and kept alive by the registry afterwards.
    [[nodiscard]] static ThreadBuffer& local_buffer();

    static std::atomic<bool> enabled_;

    mutable util::Mutex registry_mutex_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_
        YPM_GUARDED_BY(registry_mutex_);
    std::uint32_t next_tid_ YPM_GUARDED_BY(registry_mutex_) = 0;
};

/// RAII span: stamps the clock at construction and records one complete
/// event at destruction. When tracing is disabled at construction the span
/// is disarmed - construction and destruction are then a single relaxed
/// atomic load and a branch.
class Span {
public:
    Span(const char* name, const char* category)
        : armed_(Tracer::enabled()), name_(name), category_(category) {
        if (armed_) start_ = util::now_ns();
    }
    ~Span() {
        if (!armed_) return;
        Tracer::record(TraceEvent{name_, category_, start_,
                                  util::now_ns() - start_, 0, false,
                                  std::move(args_)});
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;

    /// Attach a diagnostic argument (no-op when disarmed).
    void arg(const char* key, double value) {
        if (armed_) args_.push_back({key, value});
    }

private:
    bool armed_;
    const char* name_;
    const char* category_;
    util::TickNs start_ = 0;
    std::vector<TraceArg> args_;
};

/// Serialize a drained trace as Chrome trace-event JSON (object form). The
/// optional metrics snapshot is embedded as a top-level "metrics" key -
/// Chrome/Perfetto ignore unknown keys, scripts/check_trace.py reads it.
[[nodiscard]] std::string
chrome_trace_json(const std::vector<TraceEvent>& events,
                  const MetricsSnapshot* metrics = nullptr);

/// chrome_trace_json() straight to a file. \throws ypm::IoError on failure.
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        const MetricsSnapshot* metrics = nullptr);

/// Compact per-span-name summary (count, total/mean/max ms), sorted by
/// total time descending - the "where did the run go" table.
[[nodiscard]] std::string
trace_summary_table(const std::vector<TraceEvent>& events);

} // namespace ypm::obs
