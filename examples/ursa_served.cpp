//===- examples/ursa_served.cpp - The persistent compile server -----------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A persistent compile service over a Unix-domain or TCP socket:
//
//   ursa_served --socket PATH | --tcp [HOST:]PORT [options]
//
//   --socket PATH       Unix socket file to listen on (also
//                       URSA_SERVICE_SOCKET; "unix:PATH" and "tcp:..."
//                       endpoint strings are accepted here too)
//   --tcp [HOST:]PORT   listen on TCP instead (loopback by default;
//                       port 0 = kernel-assigned, printed at startup)
//   --workers N         concurrent compile workers (URSA_SERVICE_WORKERS,
//                       default 2)
//   --queue-depth N     bounded queue; arrivals beyond it are shed
//                       (URSA_SERVICE_QUEUE_DEPTH, default 64)
//   --cache-size N      measurement-cache entries per machine
//                       (URSA_SERVICE_CACHE_SIZE, default 1024)
//   --no-cache          disable cross-request measurement reuse
//                       (URSA_SERVICE_CACHE=0)
//   --cache-dir DIR     persist measurement caches to DIR as crash-safe
//                       snapshot+journal images; restarts load them warm
//                       (URSA_SERVICE_CACHE_DIR)
//   --snapshot-every N  journal appends between periodic snapshots
//                       (URSA_SERVICE_SNAPSHOT_EVERY, default 32)
//   --idle-timeout MS   reap connections idle this long
//                       (URSA_SERVICE_IDLE_TIMEOUT_MS, default never)
//   --io-timeout MS     per-operation socket deadline mid-frame
//                       (URSA_SERVICE_IO_TIMEOUT_MS, default unbounded)
//   --no-degrade        never turn verification off under queue pressure
//                       (URSA_SERVICE_DEGRADE=0)
//   --test-hooks        honor the per-request stall test hook
//                       (URSA_SERVICE_TEST_HOOKS)
//   --report-out FILE   write the final ursa.service_report.v1 document
//                       to FILE on shutdown
//   --flight-size N     flight-recorder ring size
//                       (URSA_SERVICE_FLIGHT_SIZE, default 256)
//   --flight-slow N     successful requests keeping full span timelines
//                       (URSA_SERVICE_FLIGHT_SLOW, default 8)
//   --flight-dump FILE  dump the flight recorder to FILE on shutdown
//                       (URSA_FLIGHT_DUMP)
//
// Live observability: the `stats` verb returns ursa.service_stats.v1
// (or Prometheus text) with latency histograms and optionally the
// flight-recorder ring; `health` is a cheap pressure probe. `ursa_top`
// renders stats as a refreshing table; `ursa_batch --stats` fetches one
// document.
//
// Every `ok` answer depends only on its request: the same text `ursa_cc`
// prints for that source, machine and options, whatever the load. Load
// sheds requests and a request's deadline cancels its compile; neither
// changes an answer.
//
// The server drains on a `shutdown` request: queued compiles finish and
// their responses flush before the process exits. Protocol and report
// schemas are documented in docs/SERVICE.md; ursa_batch is the matching
// client.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace ursa;
using namespace ursa::service;

int main(int Argc, char **Argv) {
  ServiceConfig Cfg = ServiceConfig::fromEnv();
  std::string Endpoint;
  if (const char *S = std::getenv("URSA_SERVICE_SOCKET"))
    Endpoint = S;
  std::string ReportOut;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *S = nullptr;
    if (A == "--socket" && (S = Next()))
      Endpoint = S;
    else if (A == "--tcp" && (S = Next()))
      Endpoint = std::string("tcp:") + S;
    else if (A == "--workers" && (S = Next()) && std::atoi(S) > 0)
      Cfg.Workers = unsigned(std::atoi(S));
    else if (A == "--queue-depth" && (S = Next()) && std::atoi(S) > 0)
      Cfg.QueueDepth = unsigned(std::atoi(S));
    else if (A == "--cache-size" && (S = Next()) && std::atoi(S) > 0)
      Cfg.CacheSize = unsigned(std::atoi(S));
    else if (A == "--no-cache")
      Cfg.CacheEnabled = false;
    else if (A == "--cache-dir" && (S = Next()))
      Cfg.CacheDir = S;
    else if (A == "--snapshot-every" && (S = Next()))
      Cfg.SnapshotEvery = unsigned(std::atoi(S));
    else if (A == "--idle-timeout" && (S = Next()))
      Cfg.IdleTimeoutMs = unsigned(std::atoi(S));
    else if (A == "--io-timeout" && (S = Next()))
      Cfg.IoTimeoutMs = unsigned(std::atoi(S));
    else if (A == "--no-degrade")
      Cfg.DegradeEnabled = false;
    else if (A == "--test-hooks")
      Cfg.EnableTestHooks = true;
    else if (A == "--report-out" && (S = Next()))
      ReportOut = S;
    else if (A == "--flight-size" && (S = Next()))
      Cfg.FlightSize = unsigned(std::atoi(S));
    else if (A == "--flight-slow" && (S = Next()))
      Cfg.FlightSlowN = unsigned(std::atoi(S));
    else if (A == "--flight-dump" && (S = Next()))
      Cfg.FlightDumpPath = S;
    else {
      std::fprintf(stderr, "unknown or incomplete option '%s'\n", A.c_str());
      return 1;
    }
  }
  if (Endpoint.empty()) {
    std::fprintf(stderr,
                 "usage: ursa_served --socket PATH | --tcp [HOST:]PORT "
                 "[options]\n"
                 "       (see the header of examples/ursa_served.cpp)\n");
    return 1;
  }

  Server Srv(Endpoint, Cfg);
  if (Status St = Srv.start(); !St.isOk()) {
    std::fprintf(stderr, "error: %s\n", St.str().c_str());
    return 1;
  }
  if (Srv.port())
    std::fprintf(stderr, "ursa_served: listening on tcp port %u", Srv.port());
  else
    std::fprintf(stderr, "ursa_served: listening on %s", Endpoint.c_str());
  std::fprintf(stderr,
               " (%u workers, queue %u, cache %s/%u%s%s)\n",
               Cfg.Workers, Cfg.QueueDepth, Cfg.CacheEnabled ? "on" : "off",
               Cfg.CacheSize, Cfg.CacheDir.empty() ? "" : ", persisted to ",
               Cfg.CacheDir.c_str());
  Srv.run();

  std::string Report = Srv.service().reportJSON();
  if (!ReportOut.empty()) {
    std::ofstream Out(ReportOut);
    if (!Out) {
      std::fprintf(stderr, "warning: cannot write report to '%s'\n",
                   ReportOut.c_str());
    } else {
      Out << Report << "\n";
    }
  }
  std::fprintf(stderr, "ursa_served: shut down\n");
  return 0;
}
