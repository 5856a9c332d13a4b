//===- obs/Tracer.cpp - Chrome-trace-event span tracer --------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Tracer.h"

#include "obs/Json.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

using namespace ursa;
using namespace ursa::obs;

std::atomic<bool> obs::detail::TraceActive{false};
constinit thread_local SpanCollector *obs::detail::TlsCollector = nullptr;

namespace {

using Clock = std::chrono::steady_clock;

/// The process-wide span epoch: every monotonicNowUs value counts from
/// here, so tracer events, collector stages, and request records share
/// one time axis.
Clock::time_point processEpoch() {
  static const Clock::time_point Epoch = Clock::now();
  return Epoch;
}

struct Event {
  const char *Name;
  const char *Cat;
  char Ph; ///< 'X' complete, 'i' instant
  uint64_t TsUs;
  uint64_t DurUs;
  uint32_t Tid;
  std::string TraceId; ///< request attribution; empty = none
};

uint32_t currentTid() {
  // Stable small id per thread for the trace's "tid" field.
  static std::atomic<uint32_t> NextTid{1};
  thread_local uint32_t Tid = NextTid.fetch_add(1);
  return Tid;
}

/// The process-wide trace buffer. Function-local singleton so its
/// destructor (static destruction at exit) flushes a trace left open by
/// URSA_TRACE without an explicit endTrace().
struct Tracer {
  std::mutex Mu;
  std::vector<Event> Events;
  uint64_t StartUs = 0; ///< monotonicNowUs when the trace began
  std::string Path;

  ~Tracer() { finishLocked(); }

  void start(const std::string &P) {
    std::lock_guard<std::mutex> Lock(Mu);
    finishLocked();
    Path = P;
    Events.clear();
    Events.reserve(4096);
    StartUs = monotonicNowUs();
    detail::TraceActive.store(true, std::memory_order_relaxed);
  }

  bool finish() {
    std::lock_guard<std::mutex> Lock(Mu);
    return finishLocked();
  }

  bool finishLocked() {
    if (!detail::TraceActive.load(std::memory_order_relaxed))
      return true;
    detail::TraceActive.store(false, std::memory_order_relaxed);
    std::ofstream OS(Path, std::ios::trunc);
    if (!OS)
      return false;
    OS << jsonLocked();
    Events.clear();
    return bool(OS);
  }

  std::string jsonLocked() {
    JsonWriter W;
    W.beginObject();
    W.key("traceEvents").beginArray();
    for (const Event &E : Events) {
      W.beginObject();
      W.kv("name", E.Name).kv("cat", E.Cat);
      W.kv("ph", std::string_view(&E.Ph, 1));
      W.kv("ts", E.TsUs);
      if (E.Ph == 'X')
        W.kv("dur", E.DurUs);
      if (E.Ph == 'i')
        W.kv("s", "t"); // instant scope: thread
      W.kv("pid", uint64_t(1)).kv("tid", uint64_t(E.Tid));
      if (!E.TraceId.empty()) {
        W.key("args").beginObject();
        W.kv("trace_id", E.TraceId);
        W.endObject();
      }
      W.endObject();
    }
    W.endArray();
    W.kv("displayTimeUnit", "ms");
    W.endObject();
    return W.str();
  }

  /// Rebases a monotonic timestamp onto the trace's own origin.
  uint64_t rebase(uint64_t MonoUs) const {
    return MonoUs >= StartUs ? MonoUs - StartUs : 0;
  }
};

Tracer &tracer() {
  static Tracer T;
  return T;
}

/// URSA_TRACE=<file> arms the tracer for the whole process lifetime; the
/// Tracer destructor writes the file at exit.
[[maybe_unused]] const bool EnvInit = [] {
  if (const char *Path = std::getenv("URSA_TRACE"))
    if (*Path)
      tracer().start(Path);
  return true;
}();

} // namespace

uint64_t obs::monotonicNowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - processEpoch())
                      .count());
}

uint64_t SpanCollector::totalUs(const char *Name) const {
  uint64_t Total = 0;
  for (const Stage &S : Stages)
    if (!std::strcmp(S.Name, Name))
      Total += S.DurUs;
  return Total;
}

void obs::startTrace(const std::string &Path) { tracer().start(Path); }

bool obs::endTrace() { return tracer().finish(); }

std::string obs::traceJson() {
  Tracer &T = tracer();
  std::lock_guard<std::mutex> Lock(T.Mu);
  return T.jsonLocked();
}

uint64_t obs::traceNowUs() {
  if (!traceEnabled())
    return 0;
  return tracer().rebase(monotonicNowUs());
}

void obs::recordCompleteEvent(const char *Name, const char *Cat,
                              uint64_t TsUs, uint64_t DurUs,
                              const char *TraceId) {
  Tracer &T = tracer();
  std::lock_guard<std::mutex> Lock(T.Mu);
  if (!traceEnabled())
    return;
  T.Events.push_back({Name, Cat, 'X', T.rebase(TsUs), DurUs, currentTid(),
                      TraceId ? std::string(TraceId) : std::string()});
}

void obs::recordInstantEvent(const char *Name, const char *Cat) {
  Tracer &T = tracer();
  std::lock_guard<std::mutex> Lock(T.Mu);
  if (!traceEnabled())
    return;
  T.Events.push_back({Name, Cat, 'i', T.rebase(monotonicNowUs()), 0,
                      currentTid(), std::string()});
}
