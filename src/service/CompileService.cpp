//===- service/CompileService.cpp - Persistent compile service ------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include "ir/Parser.h"
#include "obs/Histogram.h"
#include "obs/Json.h"
#include "obs/Stats.h"
#include "obs/Tracer.h"
#include "ursa/Compiler.h"
#include "ursa/FaultInjector.h"
#include "ursa/PipelineVerifier.h"
#include "ursa/Report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include <dirent.h>

using namespace ursa;
using namespace ursa::service;

static unsigned envUnsigned(const char *Name, unsigned Default) {
  const char *S = std::getenv(Name);
  if (!S || !*S)
    return Default;
  long V = std::atol(S);
  return V >= 0 ? unsigned(V) : Default;
}

ServiceConfig ServiceConfig::fromEnv() {
  ServiceConfig C;
  C.Workers = std::max(1u, envUnsigned("URSA_SERVICE_WORKERS", C.Workers));
  C.QueueDepth =
      std::max(1u, envUnsigned("URSA_SERVICE_QUEUE_DEPTH", C.QueueDepth));
  C.CacheSize = envUnsigned("URSA_SERVICE_CACHE_SIZE", C.CacheSize);
  C.CacheEnabled = envUnsigned("URSA_SERVICE_CACHE", 1) != 0;
  C.MaxRequestBytes =
      envUnsigned("URSA_SERVICE_MAX_REQUEST_BYTES", C.MaxRequestBytes);
  C.EnableTestHooks = envUnsigned("URSA_SERVICE_TEST_HOOKS", 0) != 0;
  if (const char *Dir = std::getenv("URSA_SERVICE_CACHE_DIR"); Dir && *Dir)
    C.CacheDir = Dir;
  C.SnapshotEvery =
      envUnsigned("URSA_SERVICE_SNAPSHOT_EVERY", C.SnapshotEvery);
  C.SnapshotOnStop = envUnsigned("URSA_SERVICE_SNAPSHOT_ON_STOP", 1) != 0;
  C.IdleTimeoutMs = envUnsigned("URSA_SERVICE_IDLE_TIMEOUT_MS", 0);
  C.IoTimeoutMs = envUnsigned("URSA_SERVICE_IO_TIMEOUT_MS", 0);
  C.DegradeEnabled = envUnsigned("URSA_SERVICE_DEGRADE", 1) != 0;
  C.FlightSize = envUnsigned("URSA_SERVICE_FLIGHT_SIZE", C.FlightSize);
  C.FlightSlowN = envUnsigned("URSA_SERVICE_FLIGHT_SLOW", C.FlightSlowN);
  if (const char *P = std::getenv("URSA_FLIGHT_DUMP"); P && *P)
    C.FlightDumpPath = P;
  return C;
}

unsigned DegradeGovernor::update(double Occupancy, uint64_t NowUs) {
  Ewma = 0.8 * Ewma + 0.2 * Occupancy;
  if (!Enabled)
    return Tier;
  // Enter tier 1 at UpThreshold; leave it only a Hysteresis below.
  unsigned T = Ewma >= (Tier ? UpThreshold - Hysteresis : UpThreshold);
  if (T != Tier) {
    Tier = T;
    ++Transitions;
    ++TierEntries[T];
    LastChangeUs = NowUs;
  }
  return Tier;
}

URSA_STAT(StatDegradeTier, "ursa.service.degrade_tier",
          "active graceful-degradation tier (gauge, 0..1)");
URSA_STAT(StatDegradeTransitions, "ursa.service.degrade_transitions",
          "degradation tier changes");
URSA_STAT(StatDegradedVerifyOff, "ursa.service.degraded_verify_off",
          "compiles run with verification shed (tier >= 1)");
URSA_STAT(StatCacheWarmLoaded, "ursa.service.cache_warm_loaded",
          "cache entries restored warm from disk at startup");
URSA_STAT(StatDegradeEnterT1, "ursa.service.degrade_enter_t1",
          "times tier 1 became the active degradation tier");
URSA_STAT(StatDegradeLastChangeUs, "ursa.service.degrade_last_change_us",
          "monotonic timestamp of the last tier transition (gauge)");

// Latency histograms: end-to-end and per stage, in microseconds. The
// stage histograms sum the request's URSA_SPAN timeline (SpanCollector),
// so they cover the same events the Chrome trace would show.
URSA_HISTO(HistE2EUs, "ursa.service.e2e_us",
           "end-to-end request latency, queue wait included");
URSA_HISTO(HistQueueUs, "ursa.service.queue_us",
           "time a request waited queued before a worker took it");
URSA_HISTO(HistCompileUs, "ursa.service.compile_us",
           "time a request spent inside the compiler");
URSA_HISTO(HistParseUs, "ursa.service.stage.parse_us",
           "request-parse stage time");
URSA_HISTO(HistMeasureUs, "ursa.service.stage.measure_us",
           "measurement stage time (full builds + delta closures)");
URSA_HISTO(HistAllocateUs, "ursa.service.stage.allocate_us",
           "allocation-rounds stage time");
URSA_HISTO(HistEmitUs, "ursa.service.stage.emit_us",
           "final schedule + emission stage time");

CompileService::CompileService(const ServiceConfig &Cfg)
    : Config(Cfg), Governor(Cfg.DegradeEnabled),
      Flight(Cfg.FlightSize, Cfg.FlightSlowN),
      StartUs(obs::monotonicNowUs()) {
  Pool = std::make_unique<ThreadPool>(std::max(1u, Config.Workers));
  // The dispatcher participates in the parallelFor, so this produces
  // exactly Config.Workers concurrent workerLoop executions and joins
  // them all before the dispatcher thread exits.
  Dispatcher = std::thread([this] {
    Pool->parallelFor(std::max(1u, Config.Workers),
                      [this](size_t) { workerLoop(); });
  });
  warmLoadPersistedCaches();
}

void CompileService::warmLoadPersistedCaches() {
  if (Config.CacheDir.empty() || !Config.CacheEnabled)
    return;
  DIR *D = ::opendir(Config.CacheDir.c_str());
  if (!D)
    return; // no directory yet: a cold start
  std::set<std::string> Seen;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    auto EndsWith = [&](const char *Suffix) {
      size_t N = std::strlen(Suffix);
      return Name.size() > N && Name.compare(Name.size() - N, N, Suffix) == 0;
    };
    if (!EndsWith(".ursacache") && !EndsWith(".journal"))
      continue;
    StatusOr<std::string> KeyOr =
        CachePersister::readImageKey(Config.CacheDir + "/" + Name);
    if (!KeyOr.isOk()) {
      std::fprintf(stderr, "warning [cache_image]: %s\n",
                   KeyOr.status().message().c_str());
      continue;
    }
    MachineSpec Spec;
    if (!MachineSpec::fromKey(*KeyOr, Spec)) {
      std::fprintf(stderr,
                   "warning [cache_image]: %s: unrecognized machine key "
                   "'%s'; leaving cold\n",
                   Name.c_str(), KeyOr->c_str());
      continue;
    }
    if (!Seen.insert(*KeyOr).second)
      continue; // the snapshot already warmed this key's cache
    (void)cacheFor(Spec); // creates, loads warm, wires the journal observer
  }
  ::closedir(D);
}

CompileService::~CompileService() { stop(/*Drain=*/true); }

void CompileService::stop(bool Drain) {
  std::deque<Job> ToShed;
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopping = true;
    if (!Drain) {
      ToShed.swap(Queue);
      C.Shed += ToShed.size();
      C.QueueDepthNow = 0;
    }
    Quit = true;
    JobReady.notify_all();
  }
  for (Job &J : ToShed) {
    ServiceResponse Resp;
    Resp.Status = ServiceResponse::StatusKind::Shed;
    Resp.Id = J.R.Id;
    Resp.TraceId = J.R.TraceId;
    Resp.Error = "server shutting down";
    recordShed(J.R, Resp.Error);
    J.Done(Resp);
  }
  if (Dispatcher.joinable())
    Dispatcher.join();

  // Drain-time snapshots: with the workers quiesced every built state is
  // recorded, so the next start replays nothing from the journal.
  if (Config.SnapshotOnStop) {
    std::lock_guard<std::mutex> L(TablesMu);
    for (auto &[Key, P] : Persisters)
      (void)P->snapshot();
  }

  // Post-mortem flight dump: URSA_FLIGHT_DUMP names a file to receive
  // the recorder ring, so a slow request can be reconstructed after the
  // process is gone. Written once, with the workers already joined.
  if (!Config.FlightDumpPath.empty() &&
      !FlightDumped.exchange(true, std::memory_order_acq_rel)) {
    std::string Doc = Flight.dumpJson();
    if (FILE *F = std::fopen(Config.FlightDumpPath.c_str(), "w")) {
      std::fwrite(Doc.data(), 1, Doc.size(), F);
      std::fputc('\n', F);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "warning [flight]: cannot write %s\n",
                   Config.FlightDumpPath.c_str());
    }
  }
}

void CompileService::updateLoadLocked() {
  // EWMA over queue occupancy, advanced on every enqueue/dequeue; the
  // governor owns the thresholds, the hysteresis, and the flap
  // accounting (per-tier entry counters + last-transition stamp).
  double Occ = double(Queue.size()) / double(std::max(1u, Config.QueueDepth));
  uint64_t NowUs = obs::monotonicNowUs();
  unsigned Before = Governor.tier();
  unsigned T = Governor.update(Occ, NowUs);
  if (T != Before) {
    DegradeTier.store(T, std::memory_order_relaxed);
    ++C.DegradeTransitions;
    StatDegradeTransitions.add();
    StatDegradeTier.set(T);
    StatDegradeLastChangeUs.set(NowUs);
    if (T == 1)
      StatDegradeEnterT1.add();
  }
}

bool CompileService::handle(const ServiceRequest &R, ResponseFn Done) {
  switch (R.Op) {
  case ServiceRequest::OpKind::Compile:
    submit(R, std::move(Done));
    return true;
  case ServiceRequest::OpKind::Report: {
    ServiceResponse Resp;
    Resp.Status = ServiceResponse::StatusKind::Report;
    Resp.Id = R.Id;
    Resp.TraceId = R.TraceId;
    Resp.Text = reportJSON();
    Done(Resp);
    return true;
  }
  case ServiceRequest::OpKind::Stats: {
    ServiceResponse Resp;
    Resp.Status = ServiceResponse::StatusKind::Stats;
    Resp.Id = R.Id;
    Resp.TraceId = R.TraceId;
    Resp.Text = R.StatsFormat == "prometheus" ? statsPrometheus()
                                              : statsJSON(R.IncludeFlight);
    Done(Resp);
    return true;
  }
  case ServiceRequest::OpKind::Health: {
    ServiceResponse Resp;
    Resp.Status = ServiceResponse::StatusKind::Stats;
    Resp.Id = R.Id;
    Resp.TraceId = R.TraceId;
    Resp.Text = healthJSON();
    Done(Resp);
    return true;
  }
  case ServiceRequest::OpKind::Ping: {
    ServiceResponse Resp;
    Resp.Status = ServiceResponse::StatusKind::Ok;
    Resp.Id = R.Id;
    Resp.TraceId = R.TraceId;
    Done(Resp);
    return true;
  }
  case ServiceRequest::OpKind::Shutdown: {
    ServiceResponse Resp;
    Resp.Status = ServiceResponse::StatusKind::Bye;
    Resp.Id = R.Id;
    Resp.TraceId = R.TraceId;
    Done(Resp);
    return false;
  }
  }
  return true;
}

void CompileService::submit(ServiceRequest R, ResponseFn Done) {
  bool WasStopping;
  {
    std::lock_guard<std::mutex> L(Mu);
    ++C.Received;
    if (!Stopping && Queue.size() < Config.QueueDepth) {
      Queue.push_back({std::move(R), std::move(Done),
                       std::chrono::steady_clock::now(),
                       obs::monotonicNowUs()});
      C.QueueDepthNow = Queue.size();
      C.QueueDepthPeak = std::max(C.QueueDepthPeak, uint64_t(Queue.size()));
      updateLoadLocked();
      JobReady.notify_one();
      return;
    }
    ++C.Shed;
    WasStopping = Stopping;
  }
  ServiceResponse Resp;
  Resp.Status = ServiceResponse::StatusKind::Shed;
  Resp.Id = R.Id;
  Resp.TraceId = R.TraceId;
  Resp.Error = WasStopping ? "server shutting down" : "queue full";
  recordShed(R, Resp.Error);
  Done(Resp);
}

/// Flight-records a request refused at admission (no worker ever saw it).
void CompileService::recordShed(const ServiceRequest &R,
                                const std::string &Why) {
  RequestRecord Rec;
  Rec.Id = R.Id;
  Rec.TraceId = R.TraceId.empty() ? R.Id : R.TraceId;
  Rec.Machine = R.Machine.key();
  Rec.Status = "shed";
  Rec.Error = Why;
  Rec.EnqueuedUs = obs::monotonicNowUs();
  Rec.DegradeTier = DegradeTier.load(std::memory_order_relaxed);
  Flight.record(std::move(Rec));
}

void CompileService::workerLoop() {
  for (;;) {
    Job J;
    double QueueMs = 0;
    {
      std::unique_lock<std::mutex> L(Mu);
      JobReady.wait(L, [this] { return Quit || !Queue.empty(); });
      if (Queue.empty())
        return; // Quit and drained
      J = std::move(Queue.front());
      Queue.pop_front();
      C.QueueDepthNow = Queue.size();
      updateLoadLocked();
      ++C.InFlight;
      QueueMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - J.Enqueued)
                    .count();
      C.TotalQueueMs += QueueMs;
    }

    RequestRecord Rec;
    Rec.Id = J.R.Id;
    Rec.TraceId = J.R.TraceId.empty() ? J.R.Id : J.R.TraceId;
    Rec.Machine = J.R.Machine.key();
    Rec.EnqueuedUs = J.EnqueuedUs;
    Rec.QueueMs = QueueMs;
    Rec.DegradeTier = DegradeTier.load(std::memory_order_relaxed);

    ServiceResponse Resp;
    if (J.R.DeadlineMs && QueueMs >= double(J.R.DeadlineMs)) {
      // Expired while queued: answer without burning a compile on it.
      Resp.Status = ServiceResponse::StatusKind::Deadline;
      Resp.Id = J.R.Id;
      Resp.Error = "deadline of " + std::to_string(J.R.DeadlineMs) +
                   "ms expired while queued";
      Resp.QueueMs = QueueMs;
    } else {
      Resp = compileOne(J, QueueMs, Rec);
    }
    Resp.TraceId = J.R.TraceId;

    Rec.Status = Resp.Status == ServiceResponse::StatusKind::Ok ? "ok"
                 : Resp.Status == ServiceResponse::StatusKind::Deadline
                     ? "deadline"
                     : "error";
    Rec.Error = Resp.Error;
    Rec.CompileMs = Resp.CompileMs;
    Rec.TotalMs = QueueMs + Resp.CompileMs;
    Rec.BudgetExhausted = Resp.BudgetExhausted;

    HistE2EUs.recordMs(Rec.TotalMs);
    HistQueueUs.recordMs(QueueMs);
    HistCompileUs.recordMs(Resp.CompileMs);
    HistParseUs.recordMs(Rec.ParseMs);
    Flight.record(std::move(Rec));

    {
      std::lock_guard<std::mutex> L(Mu);
      --C.InFlight;
      C.TotalCompileMs += Resp.CompileMs;
      C.MaxCompileMs = std::max(C.MaxCompileMs, Resp.CompileMs);
      switch (Resp.Status) {
      case ServiceResponse::StatusKind::Ok:
        ++C.Completed;
        break;
      case ServiceResponse::StatusKind::Deadline:
        ++C.DeadlineExpired;
        break;
      default:
        ++C.Errors;
        break;
      }
    }
    J.Done(Resp);
  }
}

MeasurementCache *CompileService::cacheFor(const MachineSpec &Spec) {
  const std::string Key = Spec.key();
  std::lock_guard<std::mutex> L(TablesMu);
  std::unique_ptr<MeasurementCache> &Slot = Caches[Key];
  if (Slot)
    return Slot.get();
  Slot = std::make_unique<MeasurementCache>(Config.CacheEnabled,
                                            std::max(1u, Config.CacheSize));
  if (Config.CacheDir.empty() || !Config.CacheEnabled)
    return Slot.get();

  // First touch of this machine key with persistence on: reload whatever
  // a previous server left behind, then journal every state this one
  // builds. Load problems are warnings (a cold start), never failures.
  auto P = std::make_unique<CachePersister>(Config.CacheDir, Key,
                                            MeasureOptions{});
  Status LoadSt = P->load(*Slot, modelForLocked(Spec));
  for (const Diag &D : LoadSt.diags())
    std::fprintf(stderr, "%s\n", D.str().c_str());
  StatCacheWarmLoaded.add(P->loadedEntries());

  CachePersister *Raw = P.get();
  const unsigned Every = Config.SnapshotEvery;
  Slot->setBuildObserver([Raw, Every](uint64_t Fp, const DependenceDAG &D) {
    Raw->append(Fp, D);
    if (Every && Raw->dirtyEntries() >= Every)
      (void)Raw->snapshot();
  });
  Persisters[Key] = std::move(P);
  return Slot.get();
}

const MachineModel &CompileService::modelForLocked(const MachineSpec &Spec) {
  auto It = Models.find(Spec.key());
  if (It == Models.end())
    It = Models.emplace(Spec.key(), Spec.build()).first;
  return It->second;
}

const MachineModel &CompileService::modelFor(const MachineSpec &Spec) {
  std::lock_guard<std::mutex> L(TablesMu);
  return modelForLocked(Spec);
}

ServiceResponse CompileService::compileOne(const Job &J, double QueueMs,
                                           RequestRecord &Rec) {
  const ServiceRequest &R = J.R;
  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.QueueMs = QueueMs;
  auto Begin = std::chrono::steady_clock::now();

  // Request-scoped tracing: every URSA_SPAN closing on this thread for
  // the duration of the compile (parse, measure, allocation rounds,
  // emission) lands in this collector, tagged with the request's trace
  // id — that is the flight recorder's per-stage timeline, and when
  // Chrome tracing is on the same id rides along as a span argument.
  obs::SpanCollector Coll(Rec.TraceId);
  obs::CollectorScope InRequest(&Coll);
  {
    uint64_t H, Miss;
    MeasurementCache::takeThreadTally(H, Miss); // drop stale carry-over
  }

  auto Finish = [&](ServiceResponse &Out) -> ServiceResponse & {
    Out.CompileMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Begin)
                        .count();
    MeasurementCache::takeThreadTally(Rec.CacheHits, Rec.CacheMisses);
    Rec.ParseMs = double(Coll.totalUs("service.parse")) / 1000.0;
    uint64_t MeasureUs = Coll.totalUs("ursa.measure") +
                         Coll.totalUs("ursa.measure.delta");
    uint64_t AllocUs = Coll.totalUs("ursa.allocate");
    uint64_t EmitUs = Coll.totalUs("sched.finish_and_emit");
    HistMeasureUs.record(MeasureUs);
    HistAllocateUs.record(AllocUs);
    HistEmitUs.record(EmitUs);
    Rec.Spans.reserve(Coll.stages().size());
    for (const obs::SpanCollector::Stage &S : Coll.stages())
      Rec.Spans.push_back({S.Name, S.Cat, S.StartUs, S.DurUs});
    Rec.SpansDropped = Coll.dropped();
    return Out;
  };

  Trace T(R.Id.empty() ? "request" : R.Id);
  bool Parsed;
  {
    URSA_SPAN(ParseSpan, "service.parse", "service");
    std::string Err;
    Parsed = parseTrace(R.Source, T, Err);
    if (!Parsed) {
      Resp.Status = ServiceResponse::StatusKind::Error;
      Resp.Error = "parse error: " + Err;
    }
  }
  if (!Parsed)
    return Finish(Resp);

  const MachineModel &M = modelFor(R.Machine);

  URSAOptions UO;
  UO.Order = R.Order == "fus"          ? PhaseOrdering::FUsFirst
             : R.Order == "integrated" ? PhaseOrdering::Integrated
                                       : PhaseOrdering::RegistersFirst;
  if (!R.Verify.empty())
    UO.Verify = parseVerifyLevel(R.Verify.c_str());
  UO.GuaranteedFit = R.GuaranteedFit;
  UO.Threads = R.Threads ? R.Threads : 1;
  if (R.Incremental >= 0)
    UO.IncrementalMeasure = R.Incremental != 0;
  if (R.MaxTotalRounds)
    UO.MaxTotalRounds = R.MaxTotalRounds;
  if (R.Beam)
    UO.BeamWidth = R.Beam;
  UO.Portfolio = R.Portfolio;
  UO.SharedCache = cacheFor(R.Machine);
  // The deadline may cancel the compile; it never changes the answer.
  if (R.DeadlineMs)
    UO.Deadline = J.Enqueued + std::chrono::milliseconds(R.DeadlineMs);

  // Graceful degradation: under queue pressure, shed verification. It
  // only checks the program, so an Ok answer is still what ursa_cc
  // prints.
  if (Config.DegradeEnabled &&
      DegradeTier.load(std::memory_order_relaxed) >= 1) {
    UO.Verify = VerifyLevel::None;
    StatDegradedVerifyOff.add();
  }

  FaultInjector Stall(FaultKind::StallRound);
  if (Config.EnableTestHooks && R.StallMs) {
    Stall.withStallMs(R.StallMs);
    UO.Faults = &Stall;
  }

  URSACompileResult CR = compileURSA(T, M, UO);
  Rec.Rounds = CR.AllocRounds;

  if (runWasCancelled(CR.AllocStopReasons)) {
    Resp.Status = ServiceResponse::StatusKind::Deadline;
    Resp.Error = "deadline of " + std::to_string(R.DeadlineMs) +
                 "ms expired during compilation";
    return Finish(Resp);
  }
  if (!CR.Compile.Ok) {
    Resp.Status = ServiceResponse::StatusKind::Error;
    Resp.Error = CR.Compile.Error.empty() ? "compilation failed"
                                          : CR.Compile.Error;
    for (const Diag &D : CR.Diags) {
      Resp.Error += '\n';
      Resp.Error += D.str();
    }
    return Finish(Resp);
  }

  Resp.Status = ServiceResponse::StatusKind::Ok;
  Resp.Text = formatCompileText("ursa", M, CR.Compile);
  Resp.Cycles = CR.Compile.Cycles;
  Resp.SpillOps = CR.Compile.SpillOps;
  Resp.WithinLimits = CR.AllocWithinLimits;
  Resp.BudgetExhausted = CR.BudgetExhausted;
  return Finish(Resp);
}

ServiceCounters CompileService::counters() const {
  std::lock_guard<std::mutex> L(Mu);
  ServiceCounters Out = C;
  Out.DegradeTier = DegradeTier.load(std::memory_order_relaxed);
  Out.LoadEwma = Governor.loadEwma();
  for (unsigned T = 0; T != DegradeGovernor::NumTiers; ++T)
    Out.TierEntries[T] = Governor.entries(T);
  Out.LastTierChangeUs = Governor.lastChangeUs();
  return Out;
}

std::string CompileService::reportJSON() const {
  ServiceCounters S = counters();
  obs::JsonWriter W;
  W.beginObject();
  W.kv("schema", "ursa.service_report.v1");
  W.key("config").beginObject();
  W.kv("workers", Config.Workers);
  W.kv("queue_depth", Config.QueueDepth);
  W.kv("cache_enabled", Config.CacheEnabled);
  W.kv("cache_size", Config.CacheSize);
  W.kv("max_request_bytes", Config.MaxRequestBytes);
  W.kv("cache_dir", Config.CacheDir);
  W.kv("snapshot_every", Config.SnapshotEvery);
  W.kv("idle_timeout_ms", Config.IdleTimeoutMs);
  W.kv("io_timeout_ms", Config.IoTimeoutMs);
  W.kv("degrade_enabled", Config.DegradeEnabled);
  W.kv("flight_size", Config.FlightSize);
  W.kv("flight_slow_n", Config.FlightSlowN);
  W.endObject();
  W.key("requests").beginObject();
  W.kv("received", S.Received);
  W.kv("completed", S.Completed);
  W.kv("errors", S.Errors);
  W.kv("shed", S.Shed);
  W.kv("deadline_expired", S.DeadlineExpired);
  W.kv("in_flight", S.InFlight);
  W.endObject();
  W.key("queue").beginObject();
  W.kv("depth", S.QueueDepthNow);
  W.kv("depth_peak", S.QueueDepthPeak);
  W.endObject();
  W.key("latency").beginObject();
  W.kv("total_queue_ms", S.TotalQueueMs);
  W.kv("total_compile_ms", S.TotalCompileMs);
  W.kv("max_compile_ms", S.MaxCompileMs);
  uint64_t Done = S.Completed + S.Errors + S.DeadlineExpired;
  W.kv("avg_compile_ms", Done ? S.TotalCompileMs / double(Done) : 0.0);
  W.endObject();
  W.key("degradation").beginObject();
  W.kv("enabled", Config.DegradeEnabled);
  W.kv("tier", S.DegradeTier);
  W.kv("load_ewma", S.LoadEwma);
  W.kv("transitions", S.DegradeTransitions);
  W.key("tier_entries").beginArray();
  for (uint64_t N : S.TierEntries)
    W.value(N);
  W.endArray();
  W.kv("last_change_us", S.LastTierChangeUs);
  W.endObject();
  {
    std::lock_guard<std::mutex> L(TablesMu);
    W.key("caches").beginArray();
    for (const auto &[Key, Cache] : Caches) {
      W.beginObject();
      W.kv("machine", Key);
      W.kv("entries", uint64_t(Cache->size()));
      W.kv("capacity", Config.CacheSize);
      W.endObject();
    }
    W.endArray();
    W.key("persistence").beginObject();
    W.kv("enabled", !Config.CacheDir.empty() && Config.CacheEnabled);
    W.key("images").beginArray();
    for (const auto &[Key, P] : Persisters) {
      W.beginObject();
      W.kv("machine", Key);
      W.kv("entries", uint64_t(P->entries()));
      W.kv("loaded_warm", uint64_t(P->loadedEntries()));
      W.kv("journal_dirty", uint64_t(P->dirtyEntries()));
      W.kv("snapshot_path", P->snapshotPath());
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  // The process-wide stats cover every driver run in this server: the
  // measurement-cache reuse story plus the robustness layer (persistence,
  // degradation, transport retries).
  W.key("stats").beginObject();
  for (const obs::StatValue &SV : obs::snapshotStats(/*NonZeroOnly=*/true))
    if (SV.Name.rfind("ursa.driver.measure_cache", 0) == 0 ||
        SV.Name.rfind("ursa.driver.incremental", 0) == 0 ||
        SV.Name.rfind("ursa.cache_image", 0) == 0 ||
        SV.Name.rfind("ursa.service", 0) == 0 ||
        SV.Name.rfind("ursa.client", 0) == 0)
      W.kv(SV.Name, SV.Value);
  W.endObject();
  // Latency distributions, summarized (the stats verb has full buckets).
  W.key("histograms").beginObject();
  for (const obs::HistogramSnapshot &H :
       obs::snapshotHistograms(/*NonZeroOnly=*/true)) {
    W.key(H.Name).beginObject();
    W.kv("count", H.Count);
    W.kv("p50_us", H.percentile(0.50));
    W.kv("p90_us", H.percentile(0.90));
    W.kv("p99_us", H.percentile(0.99));
    W.kv("max_us", H.Max);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.str();
}

/// One histogram in the stats document: summary percentiles plus the
/// non-empty buckets (upper edges in microseconds), enough to re-bin
/// downstream.
static void writeHistogramJson(obs::JsonWriter &W,
                               const obs::HistogramSnapshot &H) {
  W.beginObject();
  W.kv("name", H.Name);
  W.kv("desc", H.Desc);
  W.kv("count", H.Count);
  W.kv("sum_us", H.Sum);
  W.kv("max_us", H.Max);
  W.kv("p50_us", H.percentile(0.50));
  W.kv("p90_us", H.percentile(0.90));
  W.kv("p99_us", H.percentile(0.99));
  W.key("buckets").beginArray();
  for (unsigned I = 0; I != obs::Histogram::NumBuckets; ++I) {
    if (!H.Buckets[I])
      continue;
    W.beginObject();
    W.kv("le_us", obs::Histogram::bucketHi(I));
    W.kv("count", H.Buckets[I]);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string CompileService::statsJSON(bool IncludeFlight) const {
  ServiceCounters S = counters();
  uint64_t NowUs = obs::monotonicNowUs();
  obs::JsonWriter W;
  W.beginObject();
  W.kv("schema", "ursa.service_stats.v1");
  W.kv("now_us", NowUs);
  W.kv("uptime_s", double(NowUs - StartUs) / 1e6);
  W.kv("workers", Config.Workers);
  W.key("requests").beginObject();
  W.kv("received", S.Received);
  W.kv("completed", S.Completed);
  W.kv("errors", S.Errors);
  W.kv("shed", S.Shed);
  W.kv("deadline_expired", S.DeadlineExpired);
  W.kv("in_flight", S.InFlight);
  W.endObject();
  W.key("queue").beginObject();
  W.kv("depth", S.QueueDepthNow);
  W.kv("depth_peak", S.QueueDepthPeak);
  W.kv("capacity", Config.QueueDepth);
  W.endObject();
  W.key("degradation").beginObject();
  W.kv("enabled", Config.DegradeEnabled);
  W.kv("tier", S.DegradeTier);
  W.kv("load_ewma", S.LoadEwma);
  W.kv("transitions", S.DegradeTransitions);
  W.key("tier_entries").beginArray();
  for (uint64_t N : S.TierEntries)
    W.value(N);
  W.endArray();
  W.kv("last_change_us", S.LastTierChangeUs);
  W.kv("last_change_age_s",
       S.LastTierChangeUs ? double(NowUs - S.LastTierChangeUs) / 1e6 : 0.0);
  W.endObject();
  W.key("counters").beginObject();
  for (const obs::StatValue &SV : obs::snapshotStats(/*NonZeroOnly=*/true))
    W.kv(SV.Name, SV.Value);
  W.endObject();
  W.key("histograms").beginArray();
  for (const obs::HistogramSnapshot &H :
       obs::snapshotHistograms(/*NonZeroOnly=*/true))
    writeHistogramJson(W, H);
  W.endArray();
  if (IncludeFlight) {
    W.key("flight");
    Flight.writeJson(W);
  }
  W.endObject();
  return W.str();
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted stat names
/// map onto it by replacing everything else with '_'.
static std::string promName(std::string_view Name) {
  std::string Out(Name);
  for (char &Ch : Out)
    if (!(Ch >= 'a' && Ch <= 'z') && !(Ch >= 'A' && Ch <= 'Z') &&
        !(Ch >= '0' && Ch <= '9') && Ch != '_' && Ch != ':')
      Ch = '_';
  return Out;
}

std::string CompileService::statsPrometheus() const {
  ServiceCounters S = counters();
  uint64_t NowUs = obs::monotonicNowUs();
  std::string Out;
  Out.reserve(8192);
  char Buf[256];
  auto Line = [&](const char *Fmt, auto... Args) {
    int N = std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Out.append(Buf, size_t(std::max(0, N)));
    Out.push_back('\n');
  };

  Line("# HELP ursa_service_uptime_seconds seconds since service start");
  Line("# TYPE ursa_service_uptime_seconds gauge");
  Line("ursa_service_uptime_seconds %.3f", double(NowUs - StartUs) / 1e6);
  Line("# TYPE ursa_service_queue_depth gauge");
  Line("ursa_service_queue_depth %llu",
       (unsigned long long)S.QueueDepthNow);
  Line("# TYPE ursa_service_queue_capacity gauge");
  Line("ursa_service_queue_capacity %u", Config.QueueDepth);
  Line("# TYPE ursa_service_in_flight gauge");
  Line("ursa_service_in_flight %llu", (unsigned long long)S.InFlight);
  Line("# TYPE ursa_service_load_ewma gauge");
  Line("ursa_service_load_ewma %.6f", S.LoadEwma);
  Line("# TYPE ursa_service_degrade_tier_active gauge");
  Line("ursa_service_degrade_tier_active %u", S.DegradeTier);

  // The request counters live on the service instance, not in the stat
  // registry — emit them as proper counters.
  const std::pair<const char *, uint64_t> Counters[] = {
      {"ursa_service_requests_received", S.Received},
      {"ursa_service_requests_completed", S.Completed},
      {"ursa_service_requests_errors", S.Errors},
      {"ursa_service_requests_shed", S.Shed},
      {"ursa_service_requests_deadline_expired", S.DeadlineExpired},
  };
  for (const auto &[N, Value] : Counters) {
    Line("# TYPE %s counter", N);
    Line("%s %llu", N, (unsigned long long)Value);
  }

  for (const obs::StatValue &SV : obs::snapshotStats(/*NonZeroOnly=*/true)) {
    std::string N = promName(SV.Name);
    Line("# TYPE %s untyped", N.c_str());
    Line("%s %llu", N.c_str(), (unsigned long long)SV.Value);
  }

  for (const obs::HistogramSnapshot &H :
       obs::snapshotHistograms(/*NonZeroOnly=*/true)) {
    std::string N = promName(H.Name);
    Line("# HELP %s %s", N.c_str(), H.Desc.c_str());
    Line("# TYPE %s histogram", N.c_str());
    // Cumulative `le` edges for the non-empty finite buckets; the
    // mandatory +Inf bucket carries the total (including overflow).
    uint64_t Cum = 0;
    for (unsigned I = 0; I + 1 != obs::Histogram::NumBuckets; ++I) {
      if (!H.Buckets[I])
        continue;
      Cum += H.Buckets[I];
      Line("%s_bucket{le=\"%llu\"} %llu", N.c_str(),
           (unsigned long long)obs::Histogram::bucketHi(I),
           (unsigned long long)Cum);
    }
    Line("%s_bucket{le=\"+Inf\"} %llu", N.c_str(),
         (unsigned long long)H.Count);
    Line("%s_sum %llu", N.c_str(), (unsigned long long)H.Sum);
    Line("%s_count %llu", N.c_str(), (unsigned long long)H.Count);
  }
  return Out;
}

std::string CompileService::healthJSON() const {
  ServiceCounters S = counters();
  uint64_t NowUs = obs::monotonicNowUs();
  bool Draining;
  {
    std::lock_guard<std::mutex> L(Mu);
    Draining = Stopping;
  }
  obs::JsonWriter W;
  W.beginObject();
  W.kv("schema", "ursa.service_health.v1");
  W.kv("status",
       Draining ? "draining" : S.DegradeTier ? "degraded" : "ok");
  W.kv("uptime_s", double(NowUs - StartUs) / 1e6);
  W.kv("workers", Config.Workers);
  W.kv("queue_depth", S.QueueDepthNow);
  W.kv("queue_capacity", Config.QueueDepth);
  W.kv("in_flight", S.InFlight);
  W.kv("degrade_tier", S.DegradeTier);
  W.kv("load_ewma", S.LoadEwma);
  W.endObject();
  return W.str();
}
