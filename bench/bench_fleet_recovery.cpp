//===- bench/bench_fleet_recovery.cpp - Restart and disconnect recovery ---===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The single-server fault-tolerance acceptance bench, two halves:
//
//   restart     a compile service with a persisted cache dir is killed
//               without ceremony (no drain snapshot — journal-only, the
//               kill -9 situation) and restarted; the warm restart must
//               answer the same measure-bound corpus at least 1.5x faster
//               than the cold first pass, byte-identically. A fresh
//               corpus is run as a control so the win is provably the
//               persisted cache and not general warm-up.
//
//   disconnect  a batch is driven through a TCP server via supervised
//               clients while the server is torn down and replaced on the
//               same port mid-batch; with retries on, every request must
//               land exactly once and the collected output must be
//               byte-identical to an uninterrupted run.
//
// Exit code gates both: restart speedup >= 1.5x, zero mismatches, zero
// failures. Writes BENCH_fleet_recovery.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "service/Client.h"
#include "service/Server.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

using namespace ursa;
using namespace ursa::service;
using namespace ursa::bench;

namespace {

std::vector<std::string> makeCorpus(unsigned N, unsigned Instrs,
                                    unsigned Window, uint64_t SeedBase) {
  std::vector<std::string> Out;
  for (unsigned I = 0; I != N; ++I) {
    GenOptions G;
    G.NumInstrs = Instrs;
    G.Window = Window;
    G.Seed = SeedBase + I;
    Out.push_back(generateTrace(G).str());
  }
  return Out;
}

struct PassResult {
  double WallMs = 0;
  std::vector<std::string> Texts;
  unsigned Failures = 0;
};

PassResult runPass(CompileService &Svc, const std::vector<std::string> &Sources,
                   const MachineSpec &Machine, const char *Tag) {
  struct Sink {
    std::mutex Mu;
    std::condition_variable Cv;
    size_t Done = 0;
    std::vector<std::string> Texts;
    std::vector<bool> Ok;
  } S;
  S.Texts.resize(Sources.size());
  S.Ok.assign(Sources.size(), false);

  auto T0 = std::chrono::steady_clock::now();
  for (size_t I = 0; I != Sources.size(); ++I) {
    ServiceRequest R;
    R.Op = ServiceRequest::OpKind::Compile;
    R.Id = std::string(Tag) + std::to_string(I);
    R.Source = Sources[I];
    R.Machine = Machine;
    Svc.handle(std::move(R), [&S, I](const ServiceResponse &Resp) {
      std::lock_guard<std::mutex> L(S.Mu);
      if (Resp.Status == ServiceResponse::StatusKind::Ok) {
        S.Texts[I] = Resp.Text;
        S.Ok[I] = true;
      }
      ++S.Done;
      S.Cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> L(S.Mu);
    S.Cv.wait(L, [&] { return S.Done == Sources.size(); });
  }
  PassResult R;
  R.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  R.Texts = std::move(S.Texts);
  for (bool Ok : S.Ok)
    if (!Ok)
      ++R.Failures;
  return R;
}

//===----------------------------------------------------------------------===//
// Half 1: warm restart from a journal-only cache image
//===----------------------------------------------------------------------===//

struct RestartResult {
  PassResult Cold, WarmRestart, FreshControl;
  double speedup() const { return Cold.WallMs / WarmRestart.WallMs; }
  unsigned Mismatches = 0;
};

RestartResult runRestart(const std::string &Dir, unsigned N) {
  // The measure-bound tier: wide traces on an ample machine, where the
  // compile *is* the measurement and the persisted cache pays for itself.
  MachineSpec Ample;
  Ample.Fus = 4;
  Ample.Regs = 64;
  std::vector<std::string> Corpus = makeCorpus(N, 160, 48, 1000);
  std::vector<std::string> Fresh = makeCorpus(N, 160, 48, 9000);

  ServiceConfig Cfg;
  Cfg.Workers = 2;
  Cfg.CacheSize = 4096;
  Cfg.CacheDir = Dir;
  Cfg.SnapshotEvery = 0;      // journal-only...
  Cfg.SnapshotOnStop = false; // ...and no drain snapshot: kill -9 in spirit

  RestartResult R;
  {
    CompileService Gen1(Cfg);
    R.Cold = runPass(Gen1, Corpus, Ample, "cold");
    // Gen1 dies here having never snapshotted; only the flushed journal
    // survives it.
  }
  {
    CompileService Gen2(Cfg);
    R.WarmRestart = runPass(Gen2, Corpus, Ample, "warm");
    R.FreshControl = runPass(Gen2, Fresh, Ample, "fresh");
  }
  for (unsigned I = 0; I != N; ++I)
    if (R.Cold.Texts[I] != R.WarmRestart.Texts[I])
      ++R.Mismatches;
  return R;
}

//===----------------------------------------------------------------------===//
// Half 2: a batch surviving server teardown mid-flight
//===----------------------------------------------------------------------===//

struct DisconnectResult {
  unsigned Requests = 0;
  unsigned Failures = 0;
  unsigned Mismatches = 0;
  double WallMs = 0;
};

DisconnectResult runDisconnect(unsigned N) {
  MachineSpec Spec;
  Spec.Fus = 2;
  Spec.Regs = 8;
  std::vector<std::string> Corpus = makeCorpus(N, 40, 10, 500);

  // Reference pass: one uninterrupted in-process service.
  std::vector<std::string> Reference;
  {
    ServiceConfig Cfg;
    Cfg.Workers = 2;
    CompileService Svc(Cfg);
    Reference = runPass(Svc, Corpus, Spec, "ref").Texts;
  }

  ServiceConfig Cfg;
  Cfg.Workers = 2;
  auto StartServer = [&](const std::string &Ep) {
    auto S = std::make_unique<Server>(Ep, Cfg);
    if (!S->start().isOk())
      return std::unique_ptr<Server>();
    return S;
  };

  DisconnectResult R;
  R.Requests = N;
  std::unique_ptr<Server> Srv = StartServer("tcp:0");
  if (!Srv) {
    R.Failures = N;
    return R;
  }
  std::string Endpoint = "tcp:" + std::to_string(Srv->port());
  std::thread Runner([&] { Srv->run(); });

  RetryPolicy Policy;
  Policy.MaxRetries = 8;
  Policy.BackoffBaseMs = 5;
  Policy.BackoffMaxMs = 200;
  StatusOr<ServiceClient> COr = ServiceClient::connectWithRetry(Endpoint, Policy);
  if (!COr.isOk()) {
    Srv->requestStop();
    Runner.join();
    R.Failures = N;
    return R;
  }

  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::string> Got(N);
  for (unsigned I = 0; I != N; ++I) {
    // Mid-batch, tear the server down and replace it on the same port —
    // the injected disconnect every in-flight client must ride out.
    if (I == N / 2) {
      Srv->requestStop();
      Runner.join();
      Srv = StartServer(Endpoint);
      if (!Srv) {
        R.Failures += N - I;
        break;
      }
      Runner = std::thread([&] { Srv->run(); });
    }
    ServiceRequest Req;
    Req.Op = ServiceRequest::OpKind::Compile;
    Req.Id = std::to_string(I);
    Req.Source = Corpus[I];
    Req.Machine = Spec;
    ServiceResponse Resp;
    Status St = COr->callSupervised(Req, Resp);
    if (!St.isOk() || Resp.Status != ServiceResponse::StatusKind::Ok)
      ++R.Failures;
    else
      Got[I] = Resp.Text;
  }
  R.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T0)
                 .count();

  if (Srv) {
    Srv->requestStop();
    Runner.join();
  }
  for (unsigned I = 0; I != N; ++I)
    if (Got[I] != Reference[I])
      ++R.Mismatches;
  return R;
}

} // namespace

int main() {
  std::printf("fleet recovery: warm restart and mid-batch disconnects\n\n");

  std::string Dir =
      "/tmp/ursa_bench_fleet_recovery_" + std::to_string(unsigned(::getpid()));
  std::string Clean = "rm -rf " + Dir;
  (void)std::system(Clean.c_str());

  const unsigned RestartN = 24, DisconnectN = 24;
  RestartResult Restart = runRestart(Dir, RestartN);
  DisconnectResult Disc = runDisconnect(DisconnectN);
  (void)std::system(Clean.c_str());

  Table Tbl({"half", "pass", "functions", "wall ms", "vs cold"});
  auto Row = [&](const char *Half, const char *Pass, unsigned N,
                 const PassResult &P, double Speedup) {
    Tbl.addRow({Half, Pass, Table::fmt(uint64_t(N)), Table::fmt(P.WallMs, 1),
                Speedup > 0 ? Table::fmt(Speedup, 2) + "x" : std::string("-")});
  };
  Row("restart", "cold (gen 1)", RestartN, Restart.Cold, 1.0);
  Row("restart", "warm restart (gen 2)", RestartN, Restart.WarmRestart,
      Restart.speedup());
  Row("restart", "fresh control", RestartN, Restart.FreshControl,
      Restart.Cold.WallMs / Restart.FreshControl.WallMs);
  Tbl.addRow({"disconnect", "supervised batch",
              Table::fmt(uint64_t(DisconnectN)), Table::fmt(Disc.WallMs, 1),
              "-"});
  Tbl.print(std::cout);

  bool SpeedupOk = Restart.speedup() >= 1.5;
  bool RestartClean = Restart.Mismatches == 0 && Restart.Cold.Failures == 0 &&
                      Restart.WarmRestart.Failures == 0;
  bool DiscClean = Disc.Failures == 0 && Disc.Mismatches == 0;
  std::printf("\nrestart: warm %.2fx cold (gate >= 1.50x), %u mismatches; "
              "disconnect: %u/%u ok, %u mismatches\n",
              Restart.speedup(), Restart.Mismatches,
              DisconnectN - Disc.Failures, DisconnectN, Disc.Mismatches);

  std::string Artifact =
      writeBenchArtifact("fleet_recovery", [&](obs::JsonWriter &W) {
        W.beginObject();
        W.key("restart").beginObject();
        W.kv("functions", uint64_t(RestartN));
        W.kv("cold_ms", Restart.Cold.WallMs);
        W.kv("warm_restart_ms", Restart.WarmRestart.WallMs);
        W.kv("fresh_control_ms", Restart.FreshControl.WallMs);
        W.kv("speedup", Restart.speedup());
        W.kv("speedup_ok", SpeedupOk);
        W.kv("mismatches", uint64_t(Restart.Mismatches));
        W.endObject();
        W.key("disconnect").beginObject();
        W.kv("requests", uint64_t(Disc.Requests));
        W.kv("failures", uint64_t(Disc.Failures));
        W.kv("mismatches", uint64_t(Disc.Mismatches));
        W.kv("wall_ms", Disc.WallMs);
        W.endObject();
        W.endObject();
      });
  if (!Artifact.empty())
    std::printf("artifact: %s\n", Artifact.c_str());

  return SpeedupOk && RestartClean && DiscClean ? 0 : 1;
}
