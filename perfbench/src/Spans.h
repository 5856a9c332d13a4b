//===- perfbench/src/Spans.h - In-memory span stream of the traced run ----===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The traced run brackets each call into a layer with a span: name, start,
// end, parent span, and the id of the function (or request) it served.
// Spans stay in memory and are written out once, when the run ends, as
// Chrome trace-event JSON. A layer's self time is its span's duration
// minus the durations of its direct children.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Bench.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char *Name; ///< string literal
  uint64_t StartNs = 0, EndNs = 0;
  int Parent = -1; ///< index of the enclosing span, -1 at top level
  int Fn = -1;     ///< function or request id
  int Pass = 0;
  double ms() const { return double(EndNs - StartNs) / 1e6; }
};

/// Thread-safe span store. Nesting follows a per-thread stack of open
/// spans unless the caller names the parent explicitly (a request span
/// that opens on the generator thread and closes on a service worker).
class SpanLog {
public:
  /// Opens a span and returns its id. With the default \p Parent the
  /// innermost span open on this thread is the parent and the new span
  /// becomes it; an explicit parent (or -1) leaves the thread's stack
  /// alone, so the span may close on another thread.
  int open(const char *Name, int Fn, int Pass, int Parent = -2);
  void close(int Id);

  /// Per span name, summed over the spans of one pass: total duration and
  /// self time (duration minus direct children).
  struct PassTimes {
    std::map<std::string, double> TotalMs, SelfMs;
  };
  /// Times of passes 0 .. \p Passes-1.
  std::vector<PassTimes> perPass(unsigned Passes) const;
  std::vector<SpanRecord> snapshot() const;

  /// Writes {"traceEvents":[...]} to \p Path. Returns false on I/O error.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<SpanRecord> Spans;
};

/// RAII span; a null log makes it free.
class SpanScope {
public:
  SpanScope(SpanLog *L, const char *Name, int Fn, int Pass)
      : Log(L), Id(L ? L->open(Name, Fn, Pass) : -1) {}
  ~SpanScope() {
    if (Log)
      Log->close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog *Log;
  int Id;
};

uint64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
