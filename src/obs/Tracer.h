//===- obs/Tracer.h - Chrome-trace-event span tracer ------------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped RAII timing spans that emit Chrome trace-event JSON — the format
/// Perfetto (ui.perfetto.dev) and chrome://tracing load directly. The
/// pipeline brackets its phases with URSA_SPAN so one trace file shows the
/// whole measure→transform→remeasure loop, each tentative transform
/// evaluation, scheduling, and simulation on a common timeline.
///
/// Enabling: set the URSA_TRACE environment variable to an output path
/// (picked up at process start), pass `--trace-out FILE` to ursa_cc, or
/// call startTrace()/endTrace() programmatically. When disabled a span
/// construction is one relaxed atomic load plus one thread-local read —
/// cheap enough to leave spans on every hot path (bench_obs_overhead
/// keeps this honest).
///
/// Request-scoped collection: a thread may install a SpanCollector
/// (CollectorScope), after which every span that closes on that thread is
/// also appended to the collector — name, start, duration — tagged with
/// the collector's trace id. The compile service wraps each request's
/// compile in one collector, which is how a request's stage timeline
/// reaches the flight recorder and the per-stage latency histograms, and
/// how trace-file events gain a "trace_id" arg attributing them to the
/// request that caused them.
///
/// Events buffer in memory and flush as `{"traceEvents":[...]}` on
/// endTrace() or at process exit. Timestamps are microseconds since
/// startTrace; nesting is implied by containment, the Chrome "X"
/// (complete) event semantics.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_OBS_TRACER_H
#define URSA_OBS_TRACER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ursa::obs {

class SpanCollector;

namespace detail {
extern std::atomic<bool> TraceActive;
/// constinit: constant-initialized, so accesses from other translation
/// units bind the variable directly instead of going through a TLS init
/// wrapper (which ASan+UBSan builds resolved to null).
extern constinit thread_local SpanCollector *TlsCollector;
} // namespace detail

/// Whether spans currently record (a trace file is open).
inline bool traceEnabled() {
  return detail::TraceActive.load(std::memory_order_relaxed);
}

/// Monotonic microseconds since the process-wide span epoch (first use).
/// Shared by the tracer, span collectors, and the service's request
/// records so their timestamps line up on one axis.
uint64_t monotonicNowUs();

/// Starts buffering trace events, to be written to \p Path. Replaces any
/// trace already in progress (flushing it first).
void startTrace(const std::string &Path);

/// Flushes buffered events to the startTrace() path and stops recording.
/// No-op when no trace is active. Returns false when the file could not
/// be written.
bool endTrace();

/// The trace JSON for the events buffered so far, without ending the
/// trace (tests use this to validate well-formedness in-process).
std::string traceJson();

/// Low-level event append (spans use this; instants for point events).
/// Timestamps are monotonicNowUs values; the tracer rebases them onto
/// the trace's own start. \p TraceId, when non-null and non-empty, is
/// emitted as an `args.trace_id` on the event.
void recordCompleteEvent(const char *Name, const char *Cat, uint64_t TsUs,
                         uint64_t DurUs, const char *TraceId = nullptr);
void recordInstantEvent(const char *Name, const char *Cat);

/// Microseconds since the active trace began (0 when disabled).
uint64_t traceNowUs();

/// Accumulates the spans that close on one thread while installed
/// (CollectorScope): the request-scoped stage timeline. Bounded — beyond
/// MaxSpans further spans are counted in dropped() instead of stored, so
/// a proposal-heavy compile cannot balloon a request record.
class SpanCollector {
public:
  struct Stage {
    const char *Name;
    const char *Cat;
    uint64_t StartUs; ///< monotonicNowUs at open
    uint64_t DurUs;
  };

  explicit SpanCollector(std::string TraceId, size_t MaxSpans = 4096)
      : Id(std::move(TraceId)), Cap(MaxSpans) {
    Stages.reserve(64);
  }

  void add(const Stage &S) {
    if (Stages.size() < Cap)
      Stages.push_back(S);
    else
      ++Dropped;
  }

  /// Total duration of every collected span named \p Name, in us.
  uint64_t totalUs(const char *Name) const;

  const std::vector<Stage> &stages() const { return Stages; }
  size_t dropped() const { return Dropped; }
  const std::string &traceId() const { return Id; }

private:
  std::string Id;
  std::vector<Stage> Stages;
  size_t Cap;
  size_t Dropped = 0;
};

/// Installs \p C as the current thread's span collector for the scope
/// (restoring the previous one on exit, so scopes nest).
class CollectorScope {
public:
  explicit CollectorScope(SpanCollector *C) : Prev(detail::TlsCollector) {
    detail::TlsCollector = C;
  }
  ~CollectorScope() { detail::TlsCollector = Prev; }
  CollectorScope(const CollectorScope &) = delete;
  CollectorScope &operator=(const CollectorScope &) = delete;

private:
  SpanCollector *Prev;
};

/// RAII span: construction records the start time, destruction emits one
/// complete event into the trace buffer and/or the thread's collector.
/// Cheap (one atomic load, one TLS read, no clock read) when both are
/// off.
class Span {
public:
  explicit Span(const char *SpanName, const char *SpanCat = "ursa")
      : Name(SpanName), Cat(SpanCat), Coll(detail::TlsCollector),
        Tracing(traceEnabled()) {
    if (Tracing || Coll)
      StartUs = monotonicNowUs();
  }
  ~Span() {
    if (!Tracing && !Coll)
      return;
    uint64_t Dur = monotonicNowUs() - StartUs;
    if (Coll)
      Coll->add({Name, Cat, StartUs, Dur});
    if (Tracing)
      recordCompleteEvent(Name, Cat, StartUs, Dur,
                          Coll ? Coll->traceId().c_str() : nullptr);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  const char *Cat;
  SpanCollector *Coll;
  uint64_t StartUs = 0;
  bool Tracing;
};

} // namespace ursa::obs

/// Times the enclosing scope under \p Name (a string literal or other
/// pointer that outlives the scope).
#define URSA_SPAN(Var, Name, Cat) ::ursa::obs::Span Var(Name, Cat)

#endif // URSA_OBS_TRACER_H
