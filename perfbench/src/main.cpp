//===- perfbench/src/main.cpp - The compile benchmark's command line ------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
//   ursa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--small] [--inject mismatch|drift]
//                  [--spans-out FILE] [--record-dir DIR]
//
// Prints a human-readable report on stderr, then on stdout one line of
// run information and, last, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any operation failed, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "graph/Closure.h"
#include "obs/Stats.h"
#include "obs/Tracer.h"
#include "service/CompileService.h"
#include "support/ThreadPool.h"
#include "ursa/Driver.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

extern char **environ;

using namespace perfbench;
using namespace ursa;

namespace {

/// The metrics each mode prints, in order. BENCHMARK.json lists the same
/// names; the self-test checks that they agree.
const char *const EndToEnd[] = {
    "compile_ms_p50", "compile_ms_tail", "compiles_per_s", "cycles_geomean",
    "required_total", "peak_rss_mb",     "setup_s"};

const char *const PerLayer[] = {
    "ir.parse_ms",
    "ir.verify_ms",
    "graph.dag_build_ms",
    "graph.closure_ms",
    "graph.hammocks_ms",
    "ursa.measure_ms",
    "ursa.excess_ms",
    "ursa.propose_ms",
    "ursa.apply_ms",
    "ursa.driver_ms",
    "sched.emit_ms",
    "ir.interpret_ms",
    "vliw.simulate_ms",
    "service.queue_ms_p50",
    "service.compile_ms_p50",
    "service.codec_ms",
    "trace.overhead_pct",
    "trace.attributed_pct",
    "spill_ops",
    "order.matching.augmenting_paths",
    "order.matching.hopcroft_karp_phases",
    "order.chains.warm_augments",
    "ursa.measure.resources_measured",
    "ursa.measure.closure_bytes",
    "ursa.measure.excessive_sets",
    "ursa.driver.rounds",
    "ursa.driver.proposals_tried",
    "ursa.driver.noop_proposals_skipped",
    "ursa.driver.incremental.delta_evals",
    "ursa.driver.incremental.fallbacks",
    "ursa.driver.incremental.promotions",
    "ursa.driver.measure_cache.hits",
    "ursa.driver.measure_cache.misses",
    "ursa.transforms.proposed.fu_seq",
    "ursa.transforms.proposed.reg_seq",
    "ursa.transforms.proposed.spill",
    "ursa.transforms.kept.fu_seq",
    "ursa.transforms.kept.reg_seq",
    "ursa.transforms.kept.spill",
    "ursa.verify.checks_run",
    "sched.finish_and_emit.spill_rounds",
    "vliw.sim.ops_issued",
    "ursa.delta_ratio",
    "ursa.cache_hit_ratio",
    "ursa.transform_keep_ratio",
};

/// Set-ups per run, the median reported: at least MinSetupReps and at
/// least MinSetupSeconds in total, so sub-millisecond set-ups still give a
/// steady median.
constexpr unsigned MinSetupReps = 9, MaxSetupReps = 200;
constexpr double MinSetupSeconds = 0.25;

int usage(const char *Why) {
  std::fprintf(stderr,
               "ursa_perfbench: %s\nusage: ursa_perfbench --workload "
               "fit_layered|tight_large|tight_kernels|served_mix --seed N "
               "--seconds S --trace 0|1 [--small] [--inject mismatch|drift] "
               "[--spans-out FILE] [--record-dir DIR]\n",
               Why);
  return 2;
}

/// Every URSA_* knob must be unset: all tuning stays at its default.
std::string knobsSet() {
  std::string Set;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "URSA_", 5) == 0)
      Set += std::string(Set.empty() ? "" : " ") + *E;
  return Set;
}

const char *verifyName(VerifyLevel L) {
  return L == VerifyLevel::Full    ? "full"
         : L == VerifyLevel::Basic ? "basic"
                                   : "off";
}

const char *closureModeName(ClosureMode M) {
  return M == ClosureMode::Dense     ? "dense"
         : M == ClosureMode::Blocked ? "blocked"
                                     : "auto";
}

/// The resolved settings, one JSON object.
std::string settingsJSON(const Options &O) {
  service::ServiceConfig SC = service::ServiceConfig::fromEnv();
  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"small\":%s,\"build_type\":\"%s\",\"nproc\":%u,\"threads\":%u,"
      "\"incremental\":%s,\"cache_size\":%u,\"beam\":%u,\"verify\":\"%s\","
      "\"closure\":\"%s\",\"closure_threshold\":%u,\"stats\":%s,"
      "\"trace_file\":%s,\"service_workers\":%u,\"service_queue_depth\":%u,"
      "\"service_cache\":%s,\"service_cache_size\":%u,"
      "\"service_degrade\":%s}",
      workloadName(O.W), (unsigned long long)O.Seed, O.Seconds, O.Trace,
      O.Small ? "true" : "false", PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), ThreadPool::defaultThreads(),
      defaultIncrementalMeasure() ? "true" : "false",
      defaultMeasurementCacheSize(), defaultBeamWidth(),
      verifyName(defaultVerifyLevel()), closureModeName(closureMode()),
      closureThreshold(), obs::statsEnabled() ? "true" : "false",
      obs::traceEnabled() ? "true" : "false", SC.Workers, SC.QueueDepth,
      SC.CacheEnabled ? "true" : "false", SC.CacheSize,
      SC.DegradeEnabled ? "true" : "false");
  return Buf;
}

std::string number(const Metric &M) {
  if (!std::isfinite(M.Value))
    return "0";
  char Buf[64];
  if (M.Exact)
    std::snprintf(Buf, sizeof(Buf), "%.0f", M.Value);
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
  return Buf;
}

/// The process's resident high-water mark. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the launcher's memory is not
/// counted.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--small") {
      O.Small = true;
      continue;
    }
    const char *V = Value();
    if (!V)
      return usage(("missing value for " + A).c_str());
    char *End = nullptr;
    if (A == "--workload") {
      HaveWorkload = parseWorkload(V, O.W);
      if (!HaveWorkload)
        return usage(("unknown workload " + std::string(V)).c_str());
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V && !*End;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      HaveSeconds = *V && !*End && O.Seconds > 0 && O.Seconds <= 600;
    } else if (A == "--trace") {
      HaveTrace = std::strcmp(V, "0") == 0 || std::strcmp(V, "1") == 0;
      O.Trace = std::strcmp(V, "1") == 0;
    } else if (A == "--inject") {
      O.Inject = V;
      if (O.Inject != "mismatch" && O.Inject != "drift")
        return usage("--inject takes mismatch or drift");
    } else if (A == "--spans-out") {
      O.SpansOut = V;
    } else if (A == "--record-dir") {
      O.RecordDir = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (std::string Set = knobsSet(); !Set.empty())
    return usage(("URSA_* knobs must be unset, found: " + Set).c_str());

  // Set-up: the workload's inputs and, for served_mix, the service. The
  // service's destructor (drain and join) runs outside the timed part.
  std::vector<double> SetupS;
  Inputs In;
  std::unique_ptr<service::CompileService> Svc;
  double SetupTotal = 0;
  for (unsigned R = 0;
       R < (O.Small ? 2 : MinSetupReps) ||
       (!O.Small && SetupTotal < MinSetupSeconds && R < MaxSetupReps);
       ++R) {
    Svc.reset();
    auto T0 = Clock::now();
    In = makeInputs(O.W, O.Seed, O.Small);
    if (O.W == Workload::ServedMix)
      Svc = std::make_unique<service::CompileService>(
          service::ServiceConfig::fromEnv());
    SetupS.push_back(msSince(T0) / 1000);
    SetupTotal += SetupS.back();
  }

  std::unique_ptr<SpanLog> Log;
  if (O.Trace) {
    Log = std::make_unique<SpanLog>();
    O.Log = Log.get();
  }
  Outcome Out = O.W == Workload::ServedMix ? runServedBench(O, In, *Svc)
                                           : runCompileBench(O, In);
  Svc.reset();
  Out.set("setup_s", median(SetupS), "s");
  Out.set("peak_rss_mb", peakRssMb(), "MB");
  checkRecord(O, Out);
  if (Log && !O.SpansOut.empty() && !Log->write(O.SpansOut))
    Out.fail("could not write spans to " + O.SpansOut);

  // Report.
  std::fprintf(stderr, "workload %s, seed %llu%s\n", workloadName(O.W),
               (unsigned long long)O.Seed, O.Trace ? " (traced)" : "");
  std::string Json = "{\"correct\": " +
                     std::string(Out.Failed ? "false" : "true") +
                     ", \"attempted\": " + std::to_string(Out.Attempted) +
                     ", \"failed\": " + std::to_string(Out.Failed) +
                     ", \"metrics\": {";
  bool FirstMetric = true;
  auto Emit = [&](const char *Name) {
    const Metric *M = nullptr;
    for (const Metric &X : Out.Metrics)
      if (X.Name == Name)
        M = &X;
    if (!M) {
      std::fprintf(stderr, "internal error: metric %s not measured\n", Name);
      std::exit(3);
    }
    std::fprintf(stderr, "  %-38s %18s %s\n", Name, number(*M).c_str(),
                 M->Unit.c_str());
    Json += std::string(FirstMetric ? "" : ", ") + "\"" + Name +
            "\": {\"value\": " + number(*M) + ", \"unit\": \"" + M->Unit +
            "\"}";
    FirstMetric = false;
  };
  if (O.Trace)
    for (const char *Name : PerLayer)
      Emit(Name);
  else
    for (const char *Name : EndToEnd)
      Emit(Name);
  Json += "}}";
  std::fprintf(stderr, "  %-38s %18.6f (%llu of %llu failed)\n", "error_ratio",
               Out.Attempted ? double(Out.Failed) / double(Out.Attempted) : 0,
               (unsigned long long)Out.Failed,
               (unsigned long long)Out.Attempted);
  for (const std::string &N : Out.Notes)
    std::fprintf(stderr, "  note: %s\n", N.c_str());
  for (const std::string &F : Out.Failures)
    std::fprintf(stderr, "  FAILED: %s\n", F.c_str());

  std::printf("{\"settings\": %s}\n", settingsJSON(O).c_str());
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Out.Failed ? 1 : 0;
}
