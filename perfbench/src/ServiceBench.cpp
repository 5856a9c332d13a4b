//===- perfbench/src/ServiceBench.cpp - served_mix through CompileService -===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One generator thread keeps a fixed number of requests outstanding (a
// closed loop: the next request goes out when a response comes back).
// Each request passes through the JSON wire codec both ways —
// writeRequest/parseRequest before CompileService::handle and
// writeResponse/parseResponse in the callback — and its latency runs from
// submit to the end of the callback. The request stream is a function of
// the seed alone: each request is, with even odds, a fresh source (the
// next one of the pool, long since evicted from the service's measurement
// cache) or a repeat of one of the last eight fresh sources (a cache hit).
//
// After the stream, every pool source is compiled directly; each served
// text must equal the direct compile's text, and the direct program must
// match interpret under simulate.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "ir/Parser.h"
#include "service/CompileService.h"
#include "support/RNG.h"
#include "ursa/Compiler.h"
#include "ursa/Report.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

using namespace perfbench;
using namespace ursa;
using namespace ursa::service;

namespace {

/// Fresh sources a repeat may pick from.
constexpr size_t RepeatWindow = 8;

/// What the stream observed, guarded by Mu.
struct StreamState {
  std::mutex Mu;
  std::condition_variable Done;
  unsigned Outstanding = 0;
  std::vector<double> LatencyMs, QueueMs, CompileMs, CodecMs;
  std::vector<double> DoneAtS; ///< completion times since the stream began
  std::vector<std::string> FirstText; ///< first Ok response per source
  std::vector<uint64_t> Served;       ///< Ok responses per source
  uint64_t Mismatched = 0; ///< Ok responses whose text differs from the first
  std::vector<std::string> Errors;
};

struct StreamResult {
  uint64_t Sent = 0;
  double WallS = 0;
  Counts CacheCounts;
};

StreamResult driveStream(const Options &O, const Inputs &In,
                         CompileService &Svc, double Seconds,
                         StreamState &St) {
  StreamResult R;
  const size_t Pool = In.Funcs.size();
  St.FirstText.assign(Pool, "");
  St.Served.assign(Pool, 0);
  const unsigned MaxOutstanding =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  MachineSpec Spec;
  Spec.Fus = In.Fus;
  Spec.Regs = In.Regs;
  RNG Pick(O.Seed ^ 0x5e7feedULL);
  std::deque<size_t> Recent;
  size_t NextFresh = 0;
  SpanLog *Log = O.Log;

  Counts Before = snapshotCounts();
  auto Start = Clock::now();
  while (msSince(Start) < Seconds * 1000) {
    {
      std::unique_lock<std::mutex> L(St.Mu);
      St.Done.wait(L, [&] { return St.Outstanding < MaxOutstanding; });
      ++St.Outstanding;
    }
    size_t Src;
    if (!Recent.empty() && Pick.below(2) == 0) {
      Src = Recent[Pick.below(Recent.size())];
    } else {
      Src = NextFresh++ % Pool;
      Recent.push_back(Src);
      if (Recent.size() > RepeatWindow)
        Recent.pop_front();
    }
    ServiceRequest Req;
    Req.Id = std::to_string(R.Sent);
    Req.Source = In.Funcs[Src].Source;
    Req.Machine = Spec;
    const int Id = int(R.Sent++);

    int Span = Log ? Log->open("request", Id, -1, -1) : -1;
    auto Submit = Clock::now();
    int CodecSpan = Log ? Log->open("service.codec", Id, -1, Span) : -1;
    std::string Wire = writeRequest(Req);
    ServiceRequest Parsed;
    Status PS = parseRequest(Wire, Parsed, Svc.parseLimits());
    double RequestCodecMs = msSince(Submit);
    if (Log)
      Log->close(CodecSpan);
    if (!PS.isOk()) {
      std::lock_guard<std::mutex> L(St.Mu);
      St.Errors.push_back("request codec: " + PS.message());
      --St.Outstanding;
      continue;
    }
    Svc.handle(Parsed, [&St, Log, Src, Start, Submit, RequestCodecMs, Span,
                        Id](const ServiceResponse &Resp) {
      auto C0 = Clock::now();
      int RespSpan = Log ? Log->open("service.codec", Id, -1, Span) : -1;
      std::string Back = writeResponse(Resp);
      ServiceResponse Got;
      Status RS = parseResponse(Back, Got);
      if (Log)
        Log->close(RespSpan);
      double CodecMs = RequestCodecMs + msSince(C0);
      double Latency = msSince(Submit);
      if (Log)
        Log->close(Span);
      bool Ok = RS.isOk() && Got.Status == ServiceResponse::StatusKind::Ok;
      std::lock_guard<std::mutex> L(St.Mu);
      St.LatencyMs.push_back(Latency);
      St.QueueMs.push_back(Got.QueueMs);
      St.CompileMs.push_back(Got.CompileMs);
      St.CodecMs.push_back(CodecMs);
      St.DoneAtS.push_back(msSince(Start) / 1000);
      if (!Ok) {
        St.Errors.push_back(std::string("response ") + statusName(Got.Status) +
                            ": " + Got.Error);
      } else if (St.Served[Src]++ == 0) {
        St.FirstText[Src] = Got.Text;
      } else if (Got.Text != St.FirstText[Src]) {
        ++St.Mismatched;
      }
      --St.Outstanding;
      St.Done.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> L(St.Mu);
    St.Done.wait(L, [&] { return St.Outstanding == 0; });
  }
  R.WallS = msSince(Start) / 1000;
  R.CacheCounts = deltaCounts(snapshotCounts(), Before);
  // Joins the workers: no callback runs once this returns.
  Svc.stop(true);
  return R;
}

} // namespace

Outcome perfbench::runServedBench(const Options &O, const Inputs &In,
                                  CompileService &Svc) {
  Outcome Out;
  double StreamSeconds = O.Seconds;
  if (O.Trace) {
    // The layer run over the first pool sources takes half the time, the
    // traced request stream the other half.
    Options Sub = O;
    Sub.Seconds = O.Seconds / 2;
    Inputs Head = In;
    Head.Funcs.resize(std::min<size_t>(16, In.Funcs.size()));
    Out = runCompileBench(Sub, Head);
    StreamSeconds = O.Seconds / 2;
  }

  StreamState St;
  StreamResult R = driveStream(O, In, Svc, StreamSeconds, St);
  Out.Attempted += R.Sent;
  for (const std::string &E : St.Errors)
    Out.fail(E);
  if (St.Mismatched)
    Out.fail("served text changed between responses for one source",
             St.Mismatched);

  // Direct compile of every pool source: the expected served text, the
  // simulate-vs-interpret check, and the exact quality metrics.
  const MachineModel M = In.machine();
  std::vector<std::pair<std::string, Quality>> Pool;
  for (size_t F = 0; F != In.Funcs.size(); ++F) {
    const Function &Fn = In.Funcs[F];
    uint64_t Served = std::max<uint64_t>(1, St.Served[F]);
    Trace T(Fn.Name);
    std::string Err;
    if (!parseTrace(Fn.Source, T, Err)) {
      Out.fail(Fn.Name + ": parse error: " + Err, Served);
      continue;
    }
    StatusOr<URSACompileResult> C = compileURSAChecked(T, M);
    if (!C.isOk()) {
      Out.fail(Fn.Name + ": " + C.status().message(), Served);
      continue;
    }
    if (St.Served[F] &&
        St.FirstText[F] != formatCompileText("ursa", M, C->Compile))
      Out.fail(Fn.Name + ": served text differs from the direct compile",
               Served);
    std::string Why =
        checkProgram(T, *C->Compile.Prog, O.Seed,
                     O.Inject == "mismatch" && F == 0, nullptr, int(F), 0);
    if (!Why.empty())
      Out.fail(Fn.Name + ": " + Why, Served);
    Pool.emplace_back(Fn.Name, qualityOf(C->FinalRequired, C->Compile));
  }
  reportQuality(Pool, Out);

  // The service versions of the compile metrics: latency from submit to
  // callback, and completions per second. Contention from other tenants
  // only ever slows the stream, in stretches of seconds, so they describe
  // the busier half of the run's whole one-second windows.
  std::vector<std::pair<double, size_t>> Windows; // (completions, index)
  for (size_t W = 0; W < size_t(R.WallS); ++W)
    Windows.push_back({0, W});
  for (double T : St.DoneAtS)
    if (size_t(T) < Windows.size())
      ++Windows[size_t(T)].first;
  std::sort(Windows.rbegin(), Windows.rend());
  Windows.resize((Windows.size() + 1) / 2);
  std::vector<char> Kept(size_t(R.WallS) + 1, Windows.empty());
  double KeptCompletions = 0;
  for (const auto &[Count, W] : Windows) {
    Kept[W] = 1;
    KeptCompletions += Count;
  }
  std::vector<double> Latency;
  for (size_t I = 0; I != St.DoneAtS.size(); ++I)
    if (Kept[std::min(size_t(St.DoneAtS[I]), Kept.size() - 1)])
      Latency.push_back(St.LatencyMs[I]);
  Out.set("compile_ms_p50", median(Latency), "ms");
  Out.set("compile_ms_tail",
          tailAt(Latency, In.TailPct, "requests", Out.Notes), "ms");
  Out.set("compiles_per_s",
          Windows.empty() ? double(St.DoneAtS.size()) / R.WallS
                          : KeptCompletions / double(Windows.size()),
          "1/s");
  Out.Notes.push_back(std::to_string(St.DoneAtS.size()) +
                      " requests completed; the busiest " +
                      std::to_string(Windows.size()) +
                      " one-second windows kept");
  Out.Notes.push_back("served_mix: compile_ms_p50/compile_ms_tail/"
                      "compiles_per_s are request_ms_p50/request_ms_tail/"
                      "requests_per_s (submit to callback)");

  if (O.Trace) {
    double CodecSum = 0;
    for (double C : St.CodecMs)
      CodecSum += C;
    Out.set("service.queue_ms_p50", median(St.QueueMs), "ms");
    Out.set("service.compile_ms_p50", median(St.CompileMs), "ms");
    Out.set("service.codec_ms",
            St.CodecMs.empty() ? 0 : CodecSum / double(St.CodecMs.size()),
            "ms");
    // Cache traffic of the shared service cache, not of the layer run.
    double Hits = double(R.CacheCounts["ursa.driver.measure_cache.hits"]);
    double Misses = double(R.CacheCounts["ursa.driver.measure_cache.misses"]);
    Out.set("ursa.driver.measure_cache.hits", Hits, "count", true);
    Out.set("ursa.driver.measure_cache.misses", Misses, "count", true);
    Out.set("ursa.cache_hit_ratio",
            Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, "ratio");
    std::erase_if(Out.Notes, [](const std::string &N) {
      return N.rfind("ursa.cache_hit_ratio base", 0) == 0;
    });
    Out.Notes.push_back("served_mix: measure_cache counts and "
                        "ursa.cache_hit_ratio come from the request stream "
                        "(base " +
                        std::to_string(uint64_t(Hits + Misses)) + ")");
  }
  return Out;
}
