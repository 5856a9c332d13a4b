//===- service/CompileService.h - Persistent compile service ----*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent heart of `ursa_served`: a bounded job queue
/// with admission control, a worker pool (support/ThreadPool.h) compiling
/// requests through the exact `ursa_cc` pipeline, and long-lived
/// server-scope allocator state — one fingerprint-keyed MeasurementCache
/// and one MachineModel per distinct machine spec, shared across requests
/// so a warm server re-measures nothing it has already seen.
///
/// Admission control and backpressure:
///  * the queue is bounded (ServiceConfig::QueueDepth); a compile arriving
///    at a full queue is *shed* immediately with StatusKind::Shed rather
///    than queued without bound;
///  * each request may carry a DeadlineMs; a request whose deadline
///    expires while queued is answered StatusKind::Deadline without
///    compiling, and the deadline remaining at dispatch is folded into the
///    driver's TimeBudgetMs so a slow compile cannot overrun it either.
///
/// Graceful degradation (ServiceConfig::DegradeEnabled): under sustained
/// queue pressure — an exponentially-weighted moving average of queue
/// occupancy, with hysteresis so the tier does not flap — the service
/// sheds *work before requests*:
///   tier 1  per-request verification off (correctness checks are
///           re-derivable later; answers stay identical);
///   tier 2  incremental-measure warm paths off (bounds the per-request
///           working set delta closures keep alive);
///   tier 3  driver budgets clamped to DegradedTimeBudgetMs (answers may
///           report BudgetExhausted but every request still answers);
///   tier 4  the existing queue-full shed — the only tier that refuses.
/// The active tier is exported in stats (ursa.service.degrade_tier) and
/// the service report.
///
/// Persistence (ServiceConfig::CacheDir): each machine key's
/// MeasurementCache is journaled to a crash-safe image (ursa/CacheImage.h)
/// as states are built, snapshotted every SnapshotEvery appends and at
/// drain, and reloaded warm on the next start — a kill -9 costs at most
/// the entry being written.
///
/// Results are bit-identical to `ursa_cc`: the same compileURSA call, the
/// same formatCompileText rendering, at any worker count (the driver is
/// deterministic and cached MeasuredStates are immutable).
///
/// The service is usable in-process (the lifecycle tests drive it without
/// any socket); service/Server.h adds the Unix-domain-socket front end.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_SERVICE_COMPILESERVICE_H
#define URSA_SERVICE_COMPILESERVICE_H

#include "service/FlightRecorder.h"
#include "service/Protocol.h"
#include "support/ThreadPool.h"
#include "ursa/CacheImage.h"
#include "ursa/MeasureCache.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace ursa::service {

/// Server tuning. Every field has a URSA_SERVICE_* environment knob (see
/// docs/SERVICE.md) read by fromEnv().
struct ServiceConfig {
  /// Concurrent compile workers (URSA_SERVICE_WORKERS, default 2).
  unsigned Workers = 2;
  /// Bounded queue depth; arrivals beyond it are shed
  /// (URSA_SERVICE_QUEUE_DEPTH, default 64).
  unsigned QueueDepth = 64;
  /// Entries per machine-key measurement cache (URSA_SERVICE_CACHE_SIZE,
  /// default 1024).
  unsigned CacheSize = 1024;
  /// Cross-request measurement reuse (URSA_SERVICE_CACHE, 0 disables).
  bool CacheEnabled = true;
  /// Applied to compiles that specify no budget of their own
  /// (URSA_SERVICE_TIME_BUDGET_MS, default 0 = unlimited).
  unsigned DefaultTimeBudgetMs = 0;
  /// Per-frame request size cap handed to the JSON parser
  /// (URSA_SERVICE_MAX_REQUEST_BYTES, default 8 MiB).
  unsigned MaxRequestBytes = 8u << 20;
  /// Honor the StallMs test hook in requests (URSA_SERVICE_TEST_HOOKS).
  bool EnableTestHooks = false;

  /// Directory for crash-safe cache images (URSA_SERVICE_CACHE_DIR,
  /// default "" = no persistence).
  std::string CacheDir;
  /// Journal appends between periodic snapshots
  /// (URSA_SERVICE_SNAPSHOT_EVERY, default 32; 0 = drain-time only).
  unsigned SnapshotEvery = 32;
  /// Snapshot at stop(Drain) (URSA_SERVICE_SNAPSHOT_ON_STOP, default on).
  /// Benches turn it off to simulate a kill -9 (journal-only recovery).
  bool SnapshotOnStop = true;

  /// Reap connections idle this long with no frame started
  /// (URSA_SERVICE_IDLE_TIMEOUT_MS, default 0 = never).
  unsigned IdleTimeoutMs = 0;
  /// Per-operation socket deadline for reads/writes mid-frame
  /// (URSA_SERVICE_IO_TIMEOUT_MS, default 0 = unbounded).
  unsigned IoTimeoutMs = 0;

  /// Degradation tiers under queue pressure (URSA_SERVICE_DEGRADE,
  /// default on).
  bool DegradeEnabled = true;
  /// Tier-3 clamp on the driver budget (URSA_SERVICE_DEGRADED_BUDGET_MS,
  /// default 250).
  unsigned DegradedTimeBudgetMs = 250;

  /// Flight-recorder ring size (URSA_SERVICE_FLIGHT_SIZE, default 256;
  /// 0 keeps only the summary-free minimum of 1).
  unsigned FlightSize = 256;
  /// Successful requests retaining full span timelines — the slowest N
  /// (URSA_SERVICE_FLIGHT_SLOW, default 8).
  unsigned FlightSlowN = 8;
  /// Dump the flight recorder to this path on shutdown (URSA_FLIGHT_DUMP,
  /// default "" = no dump).
  std::string FlightDumpPath;

  static ServiceConfig fromEnv();
};

/// Decides the graceful-degradation tier from queue pressure: an
/// exponentially-weighted moving average of queue occupancy, with
/// hysteresis so a bursty queue does not flap the tier, plus the
/// accounting that makes flapping *visible* — per-tier entry counters
/// and the timestamp of the last transition. Not thread-safe on its own;
/// the service drives it under its queue mutex (and the unit tests drive
/// it directly).
class DegradeGovernor {
public:
  /// EWMA crosses these going up to enter tiers 1..3...
  static constexpr double UpThreshold[3] = {0.5, 0.7, 0.85};
  /// ...and must fall this far below one to leave it again.
  static constexpr double Hysteresis = 0.15;

  explicit DegradeGovernor(bool EnabledIn) : Enabled(EnabledIn) {}

  /// Folds one queue-occupancy observation (in [0,1]) into the EWMA and
  /// moves the tier; returns the tier now in force. \p NowUs stamps a
  /// transition when one happens (obs::monotonicNowUs in production).
  unsigned update(double Occupancy, uint64_t NowUs);

  unsigned tier() const { return Tier; }
  double loadEwma() const { return Ewma; }
  /// Tier changes since construction, in either direction.
  uint64_t transitions() const { return Transitions; }
  /// Times tier \p T (0..3) became the active tier.
  uint64_t entries(unsigned T) const { return T < 4 ? TierEntries[T] : 0; }
  /// NowUs of the most recent transition; 0 = the tier never moved.
  uint64_t lastChangeUs() const { return LastChangeUs; }

private:
  bool Enabled;
  double Ewma = 0;
  unsigned Tier = 0;
  uint64_t Transitions = 0;
  uint64_t TierEntries[4] = {0, 0, 0, 0};
  uint64_t LastChangeUs = 0;
};

/// A monotonic snapshot of the service counters, also serialized into the
/// ursa.service_report.v1 document.
struct ServiceCounters {
  uint64_t Received = 0;        ///< compile requests admitted or refused
  uint64_t Completed = 0;       ///< compiles answered Ok
  uint64_t Errors = 0;          ///< compiles answered Error
  uint64_t Shed = 0;            ///< refused: queue full or shutting down
  uint64_t DeadlineExpired = 0; ///< answered Deadline (queued or compiling)
  uint64_t QueueDepthPeak = 0;
  uint64_t QueueDepthNow = 0;
  uint64_t InFlight = 0; ///< requests currently inside a worker
  double TotalQueueMs = 0;
  double TotalCompileMs = 0;
  double MaxCompileMs = 0;
  uint64_t DegradeTier = 0;        ///< active degradation tier (0..3)
  uint64_t DegradeTransitions = 0; ///< tier changes since start
  double LoadEwma = 0;             ///< smoothed queue occupancy [0,1]
  uint64_t TierEntries[4] = {0, 0, 0, 0}; ///< times each tier went active
  uint64_t LastTierChangeUs = 0; ///< obs::monotonicNowUs; 0 = never moved
};

class CompileService {
public:
  /// Delivers one response. Invoked exactly once per submitted request,
  /// from a worker thread for compiles that reached the queue and inline
  /// for refusals and the non-compile ops. Must be thread-safe in the
  /// caller (the server serializes concurrent sends per connection).
  using ResponseFn = std::function<void(const ServiceResponse &)>;

  explicit CompileService(const ServiceConfig &C);
  ~CompileService(); ///< stop(true): drains the queue, then joins

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Routes any request. Compiles are queued (or shed); Report and Ping
  /// are answered inline; Shutdown is answered Bye and returns false so
  /// the transport can begin draining. Returns true otherwise.
  bool handle(const ServiceRequest &R, ResponseFn Done);

  /// Queues one compile (or sheds it inline). Prefer handle().
  void submit(ServiceRequest R, ResponseFn Done);

  /// Stops admission. With \p Drain the queued jobs are still compiled;
  /// without it they are answered Shed. Joins the workers. Idempotent.
  void stop(bool Drain);

  /// The ursa.service_report.v1 document (see docs/SERVICE.md).
  std::string reportJSON() const;

  /// The ursa.service_stats.v1 document: uptime, queue, degradation
  /// state, every non-zero counter, latency histograms, and (with
  /// \p IncludeFlight) the flight-recorder ring.
  std::string statsJSON(bool IncludeFlight = false) const;

  /// The same data in Prometheus text exposition format (counters as
  /// untyped samples, histograms as cumulative `le` buckets).
  std::string statsPrometheus() const;

  /// The ursa.service_health.v1 document — cheap enough for a probe loop.
  std::string healthJSON() const;

  ServiceCounters counters() const;
  const ServiceConfig &config() const { return Config; }
  const FlightRecorder &flight() const { return Flight; }

  /// Parse limits matching the configured request size cap.
  obs::JsonParseLimits parseLimits() const {
    obs::JsonParseLimits L;
    L.MaxBytes = Config.MaxRequestBytes;
    return L;
  }

private:
  struct Job {
    ServiceRequest R;
    ResponseFn Done;
    std::chrono::steady_clock::time_point Enqueued;
    uint64_t EnqueuedUs = 0; ///< obs::monotonicNowUs at admission
  };

  void workerLoop();
  ServiceResponse compileOne(const ServiceRequest &R, double QueueMs,
                             RequestRecord &Rec);
  void recordShed(const ServiceRequest &R, const std::string &Why);
  MeasurementCache *cacheFor(const MachineSpec &Spec);
  const MachineModel &modelFor(const MachineSpec &Spec);
  const MachineModel &modelForLocked(const MachineSpec &Spec);

  /// Folds the current queue size into LoadEwma and moves the degrade
  /// tier (with hysteresis). Call with Mu held after queue changes.
  void updateLoadLocked();

  /// Scans CacheDir for persisted images at construction and warms their
  /// caches eagerly, so the O(n^2) state rebuilds happen at startup — off
  /// the request path — instead of inside the first request per machine.
  void warmLoadPersistedCaches();

  ServiceConfig Config;

  mutable std::mutex Mu; ///< queue + counters
  std::condition_variable JobReady;
  std::deque<Job> Queue;
  bool Stopping = false; ///< no new admissions
  bool Quit = false;     ///< workers exit once the queue is empty
  ServiceCounters C;
  DegradeGovernor Governor;             ///< under Mu
  std::atomic<unsigned> DegradeTier{0}; ///< written under Mu, read lock-free

  FlightRecorder Flight;
  uint64_t StartUs;                  ///< obs::monotonicNowUs at construction
  std::atomic<bool> FlightDumped{false}; ///< URSA_FLIGHT_DUMP written once

  /// Server-scope allocator state, all keyed by MachineSpec::key().
  mutable std::mutex TablesMu;
  std::map<std::string, std::unique_ptr<MeasurementCache>> Caches;
  std::map<std::string, std::unique_ptr<CachePersister>> Persisters;
  std::map<std::string, MachineModel> Models;

  /// Workers: a dispatcher thread runs Pool->parallelFor(Workers,
  /// workerLoop), giving exactly Config.Workers concurrent consumers
  /// (the dispatcher participates; see support/ThreadPool.h).
  std::unique_ptr<ThreadPool> Pool;
  std::thread Dispatcher;
};

} // namespace ursa::service

#endif // URSA_SERVICE_COMPILESERVICE_H
