//===- tests/service_test.cpp - Compile-service lifecycle -----------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The persistent compile service, bottom to top: protocol round-trips and
// malformed-input rejection, the in-process CompileService lifecycle
// (admission control, queue-full shedding, deadline expiry against
// FaultInjector-stalled compiles, clean shutdown draining), the Unix-
// socket server with pipelined and concurrent clients, and the acceptance
// bar — service output bit-identical to the direct compileURSA +
// formatCompileText path over a 50-function corpus at worker counts > 1.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "obs/Histogram.h"
#include "obs/Json.h"
#include "obs/Stats.h"
#include "service/Client.h"
#include "service/CompileService.h"
#include "service/Server.h"
#include "ursa/Compiler.h"
#include "ursa/Report.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ursa;
using namespace ursa::service;

namespace {

/// Source text of a generated trace (deterministic in the seed).
std::string genSource(uint64_t Seed, unsigned NumInstrs = 30,
                      unsigned Window = 8) {
  GenOptions G;
  G.NumInstrs = NumInstrs;
  G.Window = Window;
  G.Seed = Seed;
  return generateTrace(G).str();
}

/// What the service must produce for \p Source: the direct compileURSA +
/// formatCompileText path with matching options.
std::string directText(const std::string &Source, const MachineSpec &Spec) {
  Trace T("direct");
  std::string Err;
  EXPECT_TRUE(parseTrace(Source, T, Err)) << Err;
  MachineModel M = Spec.build();
  URSAOptions UO;
  UO.Threads = 1;
  URSACompileResult R = compileURSA(T, M, UO);
  EXPECT_TRUE(R.Compile.Ok) << R.Compile.Error;
  return formatCompileText("ursa", M, R.Compile);
}

ServiceRequest compileRequest(std::string Id, std::string Source,
                              unsigned Fus = 2, unsigned Regs = 4) {
  ServiceRequest R;
  R.Op = ServiceRequest::OpKind::Compile;
  R.Id = std::move(Id);
  R.Source = std::move(Source);
  R.Machine.Fus = Fus;
  R.Machine.Regs = Regs;
  return R;
}

/// Collects responses from worker threads and lets the test block until
/// an expected number arrived.
struct Collector {
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<ServiceResponse> Got;

  CompileService::ResponseFn sink() {
    return [this](const ServiceResponse &R) {
      std::lock_guard<std::mutex> L(Mu);
      Got.push_back(R);
      Cv.notify_all();
    };
  }
  std::vector<ServiceResponse> waitFor(size_t N) {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait_for(L, std::chrono::seconds(60), [&] { return Got.size() >= N; });
    return Got;
  }
  const ServiceResponse *byId(const std::string &Id) {
    for (const ServiceResponse &R : Got)
      if (R.Id == Id)
        return &R;
    return nullptr;
  }
};

std::string testSocketPath(const char *Tag) {
  return "/tmp/ursa_service_test_" + std::string(Tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, RequestRoundTrips) {
  ServiceRequest R;
  R.Op = ServiceRequest::OpKind::Compile;
  R.Id = "req-7";
  R.Source = "a = load x\nstore y, a\n";
  R.Machine.Classed = true;
  R.Machine.IntFus = 3;
  R.Machine.Gprs = 6;
  R.Machine.LatMem = 2;
  R.Machine.Pipelined = true;
  R.Order = "integrated";
  R.Verify = "full";
  R.GuaranteedFit = true;
  R.Threads = 2;
  R.Incremental = 0;
  R.Beam = 4;
  R.Portfolio = true;
  R.DeadlineMs = 500;
  R.StallMs = 9;

  ServiceRequest P;
  Status St = parseRequest(writeRequest(R), P);
  ASSERT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(P.Op, R.Op);
  EXPECT_EQ(P.Id, R.Id);
  EXPECT_EQ(P.Source, R.Source);
  EXPECT_EQ(P.Machine.Classed, true);
  EXPECT_EQ(P.Machine.IntFus, 3u);
  EXPECT_EQ(P.Machine.Gprs, 6u);
  EXPECT_EQ(P.Machine.LatMem, 2u);
  EXPECT_TRUE(P.Machine.Pipelined);
  EXPECT_EQ(P.Machine.key(), R.Machine.key());
  EXPECT_EQ(P.Order, "integrated");
  EXPECT_EQ(P.Verify, "full");
  EXPECT_TRUE(P.GuaranteedFit);
  EXPECT_EQ(P.Threads, 2u);
  EXPECT_EQ(P.Incremental, 0);
  EXPECT_EQ(P.Beam, 4u);
  EXPECT_TRUE(P.Portfolio);
  EXPECT_EQ(P.DeadlineMs, 500u);
  EXPECT_EQ(P.StallMs, 9u);
}

TEST(ServiceProtocol, BeamFieldsDefaultWhenAbsentAndAreBounded) {
  // A v1 request with no beam/portfolio fields keeps the server defaults
  // (0 = server-resolved width, portfolio off) — old clients stay valid.
  ServiceRequest P;
  Status St = parseRequest(
      "{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
      "\"source\":\"a = load x\"}",
      P);
  ASSERT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(P.Beam, 0u);
  EXPECT_FALSE(P.Portfolio);

  // The wire format omits defaulted fields, so an old server never sees
  // them from a client that didn't set them.
  ServiceRequest R;
  R.Op = ServiceRequest::OpKind::Compile;
  R.Source = "a = load x\n";
  std::string Doc = writeRequest(R);
  EXPECT_EQ(Doc.find("\"beam\""), std::string::npos);
  EXPECT_EQ(Doc.find("\"portfolio\""), std::string::npos);

  // Oversized widths are a resource-exhaustion vector and parse as a
  // clean error, not a clamp.
  Status Bad = parseRequest(
      "{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
      "\"source\":\"a = load x\",\"options\":{\"beam\":100}}",
      P);
  EXPECT_FALSE(Bad.isOk());
  EXPECT_NE(Bad.str().find("beam"), std::string::npos) << Bad.str();

  Status Edge = parseRequest(
      "{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
      "\"source\":\"a = load x\",\"options\":{\"beam\":64,"
      "\"portfolio\":true}}",
      P);
  ASSERT_TRUE(Edge.isOk()) << Edge.str();
  EXPECT_EQ(P.Beam, 64u);
  EXPECT_TRUE(P.Portfolio);
}

TEST(ServiceProtocol, ResponseRoundTrips) {
  ServiceResponse R;
  R.Status = ServiceResponse::StatusKind::Ok;
  R.Id = "42";
  R.Text = "; line one\n   0: v0 = load x\n";
  R.Cycles = 17;
  R.SpillOps = 3;
  R.WithinLimits = true;
  R.BudgetExhausted = false;
  R.QueueMs = 1.5;
  R.CompileMs = 20.25;

  ServiceResponse P;
  Status St = parseResponse(writeResponse(R), P);
  ASSERT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(P.Status, R.Status);
  EXPECT_EQ(P.Id, R.Id);
  EXPECT_EQ(P.Text, R.Text);
  EXPECT_EQ(P.Cycles, 17u);
  EXPECT_EQ(P.SpillOps, 3u);
  EXPECT_TRUE(P.WithinLimits);
  EXPECT_DOUBLE_EQ(P.QueueMs, 1.5);
  EXPECT_DOUBLE_EQ(P.CompileMs, 20.25);

  for (auto K : {ServiceResponse::StatusKind::Shed,
                 ServiceResponse::StatusKind::Deadline,
                 ServiceResponse::StatusKind::Bye}) {
    ServiceResponse E;
    E.Status = K;
    E.Id = "e";
    E.Error = "why";
    ServiceResponse Q;
    ASSERT_TRUE(parseResponse(writeResponse(E), Q).isOk());
    EXPECT_EQ(Q.Status, K) << statusName(K);
    EXPECT_EQ(Q.Error, "why");
  }
}

TEST(ServiceProtocol, MalformedRequestsAreCleanErrors) {
  ServiceRequest R;
  auto Fails = [&](const std::string &Doc) {
    Status St = parseRequest(Doc, R);
    EXPECT_FALSE(St.isOk()) << Doc;
    return St;
  };
  Fails("");
  Fails("not json at all");
  Fails("[1,2,3]");
  Fails("{\"schema\":\"wrong.v9\",\"op\":\"compile\"}");
  Fails("{\"schema\":\"ursa.service_request.v1\",\"op\":\"explode\"}");
  // Compile without source.
  Fails("{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
        "\"id\":\"1\"}");
  // Wrong field types.
  Fails("{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
        "\"source\":\"a = load x\",\"options\":{\"threads\":\"many\"}}");
  Fails("{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
        "\"source\":\"a = load x\",\"machine\":{\"fus\":-2}}");
  // A machine that can never fit anything.
  Fails("{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
        "\"source\":\"a = load x\",\"machine\":{\"fus\":0,\"regs\":4}}");
  // Unknown enum values.
  Fails("{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
        "\"source\":\"a = load x\",\"options\":{\"order\":\"sideways\"}}");
  // Fractions are not integers.
  Status Frac =
      Fails("{\"schema\":\"ursa.service_request.v1\",\"op\":\"compile\","
            "\"source\":\"a = load x\",\"options\":{\"beam\":2.5}}");
  EXPECT_NE(Frac.str().find("integer"), std::string::npos) << Frac.str();

  // Parse limits apply: over-deep and over-large documents.
  obs::JsonParseLimits L;
  L.MaxDepth = 4;
  std::string Deep = "{\"schema\":\"ursa.service_request.v1\",\"a\":" +
                     std::string(16, '[') + "1" + std::string(16, ']') + "}";
  EXPECT_FALSE(parseRequest(Deep, R, L).isOk());
  L = obs::JsonParseLimits{};
  L.MaxBytes = 16;
  EXPECT_FALSE(parseRequest("{\"schema\":\"ursa.service_request.v1\"}", R, L)
                   .isOk());

  // Non-compile ops need no source.
  Status St = parseRequest(
      "{\"schema\":\"ursa.service_request.v1\",\"op\":\"ping\"}", R);
  EXPECT_TRUE(St.isOk()) << St.str();
}

//===----------------------------------------------------------------------===//
// In-process service lifecycle
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, MachineShapeAndThreadsAreChecked) {
  // Every machine MachineModel would assert on is a clean parse error,
  // and so are sizes above its caps and more than 64 threads. Parsing
  // only: nothing here builds a machine or starts a thread.
  auto Parse = [](const std::string &Machine, const std::string &Options) {
    ServiceRequest R;
    return parseRequest("{\"schema\":\"ursa.service_request.v1\","
                        "\"op\":\"compile\",\"source\":\"a = load x\","
                        "\"machine\":" +
                            Machine + ",\"options\":" + Options + "}",
                        R);
  };
  for (const char *Bad :
       {"{\"int_fus\":0,\"float_fus\":1,\"mem_fus\":1,\"gprs\":8,"
        "\"fprs\":4}",
        "{\"int_fus\":1,\"float_fus\":1,\"mem_fus\":0,\"gprs\":8,"
        "\"fprs\":4}",
        "{\"int_fus\":1,\"float_fus\":1,\"mem_fus\":1,\"gprs\":0,"
        "\"fprs\":4}",
        "{\"fus\":0,\"regs\":4}", "{\"fus\":4,\"regs\":0}",
        "{\"fus\":4000000000,\"regs\":8}", "{\"fus\":4,\"regs\":4000000}",
        "{\"int_fus\":1,\"float_fus\":100000,\"mem_fus\":1,\"gprs\":8,"
        "\"fprs\":4}"}) {
    Status St = Parse(Bad, "{}");
    EXPECT_FALSE(St.isOk()) << Bad;
    EXPECT_NE(St.str().find("machine"), std::string::npos) << St.str();
  }
  // Float units and FPRs may be zero; the caps themselves are accepted.
  EXPECT_TRUE(Parse("{\"int_fus\":1,\"float_fus\":0,\"mem_fus\":1,"
                    "\"gprs\":8,\"fprs\":0}",
                    "{}")
                  .isOk());
  EXPECT_TRUE(Parse("{\"fus\":" + std::to_string(MachineModel::MaxFUsPerClass) +
                        ",\"regs\":" +
                        std::to_string(MachineModel::MaxRegsPerClass) + "}",
                    "{}")
                  .isOk());

  // A persisted cache image names its machine by key; a key for a
  // machine build() would assert on is not a machine.
  MachineSpec FromDisk;
  EXPECT_TRUE(MachineSpec::fromKey("h2x4/l1,1,1/p0", FromDisk));
  EXPECT_FALSE(MachineSpec::fromKey("h0x4/l1,1,1/p0", FromDisk));
  EXPECT_FALSE(MachineSpec::fromKey("c0,1,1,8,4/l1,1,1/p0", FromDisk));

  Status Threads = Parse("{\"fus\":2,\"regs\":4}", "{\"threads\":65}");
  EXPECT_FALSE(Threads.isOk());
  EXPECT_NE(Threads.str().find("threads"), std::string::npos)
      << Threads.str();
  EXPECT_TRUE(Parse("{\"fus\":2,\"regs\":4}", "{\"threads\":64}").isOk());
}

TEST(ServiceProtocol, NastyIdsRoundTripTheWireFormat) {
  // Caller-chosen ids and trace ids with control characters and
  // non-ASCII UTF-8 must survive writeRequest -> parseRequest and
  // writeResponse -> parseResponse unchanged.
  std::string Nasty = "id \"q\"\\\n\t";
  Nasty += '\x01';
  Nasty += '\x02';
  Nasty += "üñí-標識";

  ServiceRequest R = compileRequest(Nasty, "trace t\n");
  R.TraceId = Nasty + "-trace";
  ServiceRequest R2;
  ASSERT_TRUE(parseRequest(writeRequest(R), R2).isOk());
  EXPECT_EQ(R2.Id, Nasty);
  EXPECT_EQ(R2.TraceId, Nasty + "-trace");

  // The client-stamp override writes the given id without touching R.
  ServiceRequest R3;
  ASSERT_TRUE(parseRequest(writeRequest(R, Nasty + "-stamped"), R3).isOk());
  EXPECT_EQ(R3.TraceId, Nasty + "-stamped");
  EXPECT_EQ(R.TraceId, Nasty + "-trace");

  ServiceResponse Resp;
  Resp.Status = ServiceResponse::StatusKind::Ok;
  Resp.Id = Nasty;
  Resp.TraceId = Nasty;
  Resp.Text = "text\x1f with control";
  ServiceResponse Resp2;
  ASSERT_TRUE(parseResponse(writeResponse(Resp), Resp2).isOk());
  EXPECT_EQ(Resp2.Id, Nasty);
  EXPECT_EQ(Resp2.TraceId, Nasty);
  EXPECT_EQ(Resp2.Text, Resp.Text);
}

TEST(CompileServiceTest, CompilesAndMatchesDirectPath) {
  ServiceConfig Cfg;
  Cfg.Workers = 3;
  CompileService Svc(Cfg);
  Collector Col;

  const unsigned N = 12;
  for (unsigned I = 0; I != N; ++I)
    Svc.handle(compileRequest(std::to_string(I), genSource(I + 1)),
               Col.sink());
  auto Got = Col.waitFor(N);
  ASSERT_EQ(Got.size(), N);

  MachineSpec Spec;
  Spec.Fus = 2;
  Spec.Regs = 4;
  for (unsigned I = 0; I != N; ++I) {
    const ServiceResponse *R = Col.byId(std::to_string(I));
    ASSERT_NE(R, nullptr) << I;
    ASSERT_EQ(R->Status, ServiceResponse::StatusKind::Ok) << R->Error;
    EXPECT_EQ(R->Text, directText(genSource(I + 1), Spec)) << "function " << I;
  }
}

TEST(CompileServiceTest, RetiredFleetFieldsChangeNothing) {
  // A request's retired "client" field and its retired
  // "options":{"time_budget_ms"} are skipped like any unknown field: the
  // compile answers with the same text as the same request without them.
  std::string Wire = writeRequest(compileRequest("plain", genSource(3)));
  ASSERT_EQ(Wire.front(), '{');
  std::string Tagged = "{\"client\":\"x\"," + Wire.substr(1);
  size_t Opts = Wire.find("\"options\":{");
  ASSERT_NE(Opts, std::string::npos);
  std::string Budgeted = Wire;
  Budgeted.insert(Opts + 11, "\"time_budget_ms\":1,");
  ServiceRequest Plain, WithClient, WithBudget;
  ASSERT_TRUE(parseRequest(Wire, Plain).isOk());
  Status St = parseRequest(Tagged, WithClient);
  ASSERT_TRUE(St.isOk()) << St.str();
  WithClient.Id = "client";
  St = parseRequest(Budgeted, WithBudget);
  ASSERT_TRUE(St.isOk()) << St.str();
  WithBudget.Id = "budget";

  ServiceConfig Cfg;
  CompileService Svc(Cfg);
  Collector Col;
  Svc.handle(Plain, Col.sink());
  Svc.handle(WithClient, Col.sink());
  Svc.handle(WithBudget, Col.sink());
  ASSERT_EQ(Col.waitFor(3).size(), 3u);
  const ServiceResponse *A = Col.byId("plain");
  const ServiceResponse *B = Col.byId("client");
  const ServiceResponse *C = Col.byId("budget");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  ASSERT_NE(C, nullptr);
  ASSERT_EQ(A->Status, ServiceResponse::StatusKind::Ok) << A->Error;
  ASSERT_EQ(B->Status, ServiceResponse::StatusKind::Ok) << B->Error;
  ASSERT_EQ(C->Status, ServiceResponse::StatusKind::Ok) << C->Error;
  EXPECT_EQ(B->Text, A->Text);
  EXPECT_EQ(C->Text, A->Text);

  // A response that names a backend and the retired busy_retry_later
  // status reads as a plain error.
  ServiceResponse Legacy;
  ASSERT_TRUE(parseResponse("{\"schema\":\"ursa.service_response.v1\","
                            "\"id\":\"r\",\"status\":\"busy_retry_later\","
                            "\"backend\":\"b1\",\"error\":\"no backend\"}",
                            Legacy)
                  .isOk());
  EXPECT_EQ(Legacy.Status, ServiceResponse::StatusKind::Error);
  EXPECT_EQ(Legacy.Id, "r");
  EXPECT_EQ(Legacy.Error, "no backend");
}

TEST(CompileServiceTest, FiftyFunctionCorpusBitIdenticalWarmAndCold) {
  // The acceptance corpus: 50 distinct functions, compiled twice (cold
  // cache, then warm), at 4 workers. Every response must equal the direct
  // single-threaded path, and the warm pass must equal the cold pass.
  ServiceConfig Cfg;
  Cfg.Workers = 4;
  Cfg.CacheSize = 4096;
  CompileService Svc(Cfg);

  const unsigned N = 50;
  MachineSpec Spec;
  Spec.Fus = 2;
  Spec.Regs = 4;
  std::vector<std::string> Sources;
  for (unsigned I = 0; I != N; ++I)
    Sources.push_back(genSource(100 + I, 24, 8));

  auto RunPass = [&](const char *Tag) {
    Collector Col;
    for (unsigned I = 0; I != N; ++I) {
      ServiceRequest R =
          compileRequest(std::string(Tag) + std::to_string(I), Sources[I]);
      Svc.handle(std::move(R), Col.sink());
    }
    auto Got = Col.waitFor(N);
    EXPECT_EQ(Got.size(), N);
    std::vector<std::string> Texts(N);
    for (unsigned I = 0; I != N; ++I) {
      const ServiceResponse *R = Col.byId(std::string(Tag) + std::to_string(I));
      EXPECT_NE(R, nullptr);
      if (!R)
        continue;
      EXPECT_EQ(R->Status, ServiceResponse::StatusKind::Ok) << R->Error;
      Texts[I] = R->Text;
    }
    return Texts;
  };

  std::vector<std::string> Cold = RunPass("cold");
  std::vector<std::string> Warm = RunPass("warm");
  for (unsigned I = 0; I != N; ++I) {
    EXPECT_EQ(Cold[I], Warm[I]) << "warm pass diverged on function " << I;
    EXPECT_EQ(Cold[I], directText(Sources[I], Spec)) << "function " << I;
  }
}

TEST(CompileServiceTest, BeamAndPortfolioRequestsCompile) {
  // The optional request fields reach the driver: beam and portfolio
  // requests compile cleanly and deterministically (two identical beam
  // requests produce identical text).
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  Collector Col;

  ServiceRequest B1 = compileRequest("beam1", genSource(5));
  B1.Beam = 2;
  ServiceRequest B2 = compileRequest("beam2", genSource(5));
  B2.Beam = 2;
  ServiceRequest Port = compileRequest("port", genSource(5));
  Port.Portfolio = true;
  Svc.handle(std::move(B1), Col.sink());
  Svc.handle(std::move(B2), Col.sink());
  Svc.handle(std::move(Port), Col.sink());
  auto Got = Col.waitFor(3);
  ASSERT_EQ(Got.size(), 3u);
  for (const char *Id : {"beam1", "beam2", "port"}) {
    const ServiceResponse *P = Col.byId(Id);
    ASSERT_NE(P, nullptr) << Id;
    EXPECT_EQ(P->Status, ServiceResponse::StatusKind::Ok) << P->Error;
    EXPECT_FALSE(P->Text.empty()) << Id;
  }
  EXPECT_EQ(Col.byId("beam1")->Text, Col.byId("beam2")->Text);
}

TEST(CompileServiceTest, QueueFullSheds) {
  // One worker, a queue of two, and a compile stalled by the fault
  // injector: the worker is pinned, two requests queue, and everything
  // beyond that is shed with a clean response.
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.QueueDepth = 2;
  Cfg.EnableTestHooks = true;
  CompileService Svc(Cfg);
  Collector Col;

  // A register-tight machine guarantees transforming rounds, so StallMs
  // reliably holds the worker.
  ServiceRequest Slow = compileRequest("slow", genSource(1, 40, 12), 2, 2);
  Slow.StallMs = 40;
  Svc.handle(Slow, Col.sink());
  // Give the worker a moment to take the slow job off the queue.
  for (unsigned Spin = 0; Spin != 200 && Svc.counters().InFlight == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(Svc.counters().InFlight, 1u) << "stalled compile never started";

  for (unsigned I = 0; I != 2; ++I)
    Svc.handle(compileRequest("q" + std::to_string(I), genSource(2)),
               Col.sink());
  for (unsigned I = 0; I != 3; ++I)
    Svc.handle(compileRequest("over" + std::to_string(I), genSource(2)),
               Col.sink());

  // The three over-capacity requests are answered inline.
  auto Got = Col.waitFor(3);
  unsigned ShedSeen = 0;
  for (const ServiceResponse &R : Got)
    if (R.Status == ServiceResponse::StatusKind::Shed) {
      ++ShedSeen;
      EXPECT_EQ(R.Error, "queue full");
      EXPECT_EQ(R.Id.rfind("over", 0), 0u) << R.Id;
    }
  EXPECT_EQ(ShedSeen, 3u);
  EXPECT_EQ(Svc.counters().Shed, 3u);
  EXPECT_EQ(Svc.counters().QueueDepthPeak, 2u);

  // Everything admitted still completes.
  Got = Col.waitFor(6);
  ASSERT_EQ(Got.size(), 6u);
  for (const char *Id : {"slow", "q0", "q1"}) {
    const ServiceResponse *R = Col.byId(Id);
    ASSERT_NE(R, nullptr) << Id;
    EXPECT_EQ(R->Status, ServiceResponse::StatusKind::Ok) << Id;
  }
}

TEST(CompileServiceTest, DeadlineExpiresInQueue) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestHooks = true;
  CompileService Svc(Cfg);
  Collector Col;

  ServiceRequest Slow = compileRequest("slow", genSource(1, 40, 12), 2, 2);
  Slow.StallMs = 30;
  Svc.handle(Slow, Col.sink());

  // Queued behind a compile that takes many stalled rounds; a 1 ms
  // deadline is long gone by the time the worker frees up.
  ServiceRequest Doomed = compileRequest("doomed", genSource(2));
  Doomed.DeadlineMs = 1;
  Svc.handle(Doomed, Col.sink());

  auto Got = Col.waitFor(2);
  ASSERT_EQ(Got.size(), 2u);
  const ServiceResponse *R = Col.byId("doomed");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Status, ServiceResponse::StatusKind::Deadline);
  EXPECT_NE(R->Error.find("expired while queued"), std::string::npos)
      << R->Error;
  EXPECT_GE(R->QueueMs, 1.0);
  EXPECT_EQ(Svc.counters().DeadlineExpired, 1u);
}

TEST(CompileServiceTest, DeadlineBoundsTheCompileItself) {
  // The deadline reaches the driver as URSAOptions::Deadline, so a
  // compile whose rounds are stalled past it is cancelled and answered
  // Deadline instead of running to completion.
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestHooks = true;
  CompileService Svc(Cfg);
  Collector Col;

  ServiceRequest R = compileRequest("tight", genSource(1, 40, 12), 2, 2);
  R.StallMs = 50;
  R.DeadlineMs = 10;
  Svc.handle(R, Col.sink());

  auto Got = Col.waitFor(1);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Status, ServiceResponse::StatusKind::Deadline);
  EXPECT_NE(Got[0].Error.find("during compilation"), std::string::npos)
      << Got[0].Error;
}

TEST(CompileServiceTest, StallHookStallsTheBeam) {
  // The stall hook runs inside the one driver loop at any width, so a
  // stalled "beam":2 request stalls the beam itself: its rounds admit two
  // successors each (ursa.driver.rounds counts one per admitted successor,
  // ursa.driver.beam.rounds one per round), and the deadline cuts the
  // compile short.
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestHooks = true;
  CompileService Svc(Cfg);
  Collector Col;
  auto Stat = [](const char *Name) {
    for (const obs::StatValue &S : obs::snapshotStats())
      if (S.Name == Name)
        return S.Value;
    return uint64_t(0);
  };
  uint64_t Rounds0 = Stat("ursa.driver.beam.rounds");
  uint64_t Admitted0 = Stat("ursa.driver.rounds");

  ServiceRequest Wire = compileRequest("beam", genSource(1, 40, 12), 2, 2);
  Wire.Beam = 2;
  Wire.StallMs = 50;
  Wire.DeadlineMs = 10;
  ServiceRequest R;
  ASSERT_TRUE(parseRequest(writeRequest(Wire), R).isOk());
  Svc.handle(R, Col.sink());

  auto Got = Col.waitFor(1);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Status, ServiceResponse::StatusKind::Deadline)
      << Got[0].Error;
  uint64_t Rounds = Stat("ursa.driver.beam.rounds") - Rounds0;
  uint64_t Admitted = Stat("ursa.driver.rounds") - Admitted0;
  EXPECT_GT(Rounds, 0u);
  EXPECT_GT(Admitted, Rounds) << "the stalled compile did not run the beam";
}

TEST(CompileServiceTest, StalledPortfolioIsAnsweredDeadline) {
  // A portfolio request stalled past its deadline is cancelled, not
  // answered with whichever racer finished first.
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestHooks = true;
  CompileService Svc(Cfg);
  Collector Col;

  ServiceRequest R = compileRequest("port", genSource(1, 40, 12), 2, 2);
  R.Portfolio = true;
  R.StallMs = 50;
  R.DeadlineMs = 10;
  Svc.handle(R, Col.sink());

  auto Got = Col.waitFor(1);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Status, ServiceResponse::StatusKind::Deadline)
      << Got[0].Error;
  EXPECT_NE(Got[0].Error.find("during compilation"), std::string::npos)
      << Got[0].Error;
  EXPECT_EQ(Svc.counters().DeadlineExpired, 1u);
}

TEST(CompileServiceTest, FloatOpWithoutFloatUnitIsAnError) {
  // A float op on a classed machine with no float unit has nowhere to
  // issue: the compile answers Error, and the server keeps serving.
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  Collector Col;

  const std::string Float = "x = load a\nf = cvtif x\ng = fadd f, f\n"
                            "y = cvtfi g\nstore out, y\n";
  ServiceRequest Bad = compileRequest("nofloat", Float);
  Bad.Machine.Classed = true;
  Bad.Machine.IntFus = 1;
  Bad.Machine.FltFus = 0;
  Bad.Machine.MemFus = 1;
  ServiceRequest Good = Bad;
  Good.Id = "float";
  Good.Machine.FltFus = 1;
  Svc.handle(Bad, Col.sink());
  Svc.handle(Good, Col.sink());

  ASSERT_EQ(Col.waitFor(2).size(), 2u);
  const ServiceResponse *B = Col.byId("nofloat");
  const ServiceResponse *G = Col.byId("float");
  ASSERT_NE(B, nullptr);
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(B->Status, ServiceResponse::StatusKind::Error);
  EXPECT_NE(B->Error.find("no functional unit"), std::string::npos)
      << B->Error;
  EXPECT_EQ(G->Status, ServiceResponse::StatusKind::Ok) << G->Error;
  EXPECT_EQ(G->Text, directText(Float, Good.Machine));
}

TEST(CompileServiceTest, ShutdownDrainsAdmittedWork) {
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  CompileService Svc(Cfg);
  Collector Col;

  const unsigned N = 8;
  for (unsigned I = 0; I != N; ++I)
    Svc.handle(compileRequest(std::to_string(I), genSource(I + 1)),
               Col.sink());
  Svc.stop(/*Drain=*/true); // blocks until the queue is empty

  auto Got = Col.waitFor(N);
  ASSERT_EQ(Got.size(), N);
  for (const ServiceResponse &R : Got)
    EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Ok)
        << R.Id << ": " << R.Error;

  // Admission is closed now.
  Svc.handle(compileRequest("late", genSource(1)), Col.sink());
  Got = Col.waitFor(N + 1);
  const ServiceResponse *Late = Col.byId("late");
  ASSERT_NE(Late, nullptr);
  EXPECT_EQ(Late->Status, ServiceResponse::StatusKind::Shed);
  EXPECT_EQ(Late->Error, "server shutting down");
}

TEST(CompileServiceTest, StopWithoutDrainShedsTheQueue) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestHooks = true;
  CompileService Svc(Cfg);
  Collector Col;

  ServiceRequest Slow = compileRequest("slow", genSource(1, 40, 12), 2, 2);
  Slow.StallMs = 30;
  Svc.handle(Slow, Col.sink());
  for (unsigned Spin = 0; Spin != 200 && Svc.counters().InFlight == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (unsigned I = 0; I != 3; ++I)
    Svc.handle(compileRequest("q" + std::to_string(I), genSource(2)),
               Col.sink());

  Svc.stop(/*Drain=*/false);
  auto Got = Col.waitFor(4);
  ASSERT_EQ(Got.size(), 4u);
  unsigned ShedSeen = 0;
  for (const ServiceResponse &R : Got)
    if (R.Status == ServiceResponse::StatusKind::Shed) {
      ++ShedSeen;
      EXPECT_EQ(R.Error, "server shutting down");
    }
  // The in-flight compile still finishes; the queued ones are shed.
  EXPECT_EQ(ShedSeen, 3u);
  const ServiceResponse *R = Col.byId("slow");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Status, ServiceResponse::StatusKind::Ok) << R->Error;
}

TEST(CompileServiceTest, ReportCountsAndCaches) {
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  CompileService Svc(Cfg);
  Collector Col;
  for (unsigned I = 0; I != 4; ++I)
    Svc.handle(compileRequest(std::to_string(I), genSource(1 + (I % 2))),
               Col.sink());
  Col.waitFor(4);

  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(Svc.reportJSON(), V, Err)) << Err;
  EXPECT_EQ(V.find("schema")->Str, "ursa.service_report.v1");
  const obs::JsonValue *Req = V.find("requests");
  ASSERT_NE(Req, nullptr);
  EXPECT_EQ(Req->find("received")->Num, 4);
  EXPECT_EQ(Req->find("completed")->Num, 4);
  EXPECT_EQ(Req->find("shed")->Num, 0);
  const obs::JsonValue *Caches = V.find("caches");
  ASSERT_NE(Caches, nullptr);
  ASSERT_EQ(Caches->Arr.size(), 1u) << "one machine key -> one cache";
  EXPECT_GT(Caches->Arr[0].find("entries")->Num, 0);
  ASSERT_NE(V.find("latency"), nullptr);
  EXPECT_GT(V.find("latency")->find("total_compile_ms")->Num, 0);
}

//===----------------------------------------------------------------------===//
// Degradation governor
//===----------------------------------------------------------------------===//

TEST(DegradeGovernorTest, TiersEnterOnThresholdsWithHysteresis) {
  DegradeGovernor G(/*Enabled=*/true);
  EXPECT_EQ(G.tier(), 0u);
  EXPECT_EQ(G.lastChangeUs(), 0u);

  // Saturate the EWMA at full occupancy: tier 1 is the top tier.
  uint64_t Now = 1000;
  for (unsigned I = 0; I != 50; ++I)
    G.update(1.0, Now += 1000);
  EXPECT_EQ(G.tier(), 1u);
  EXPECT_GE(G.loadEwma(), DegradeGovernor::UpThreshold);
  EXPECT_EQ(G.entries(1), 1u);
  EXPECT_EQ(G.entries(2), 0u) << "there is no tier 2";
  EXPECT_EQ(G.transitions(), 1u);
  uint64_t ChangedAt = G.lastChangeUs();
  EXPECT_GT(ChangedAt, 0u);

  // Hovering just below the threshold must NOT leave tier 1: the EWMA
  // has to fall a full Hysteresis below it first.
  double JustBelow = DegradeGovernor::UpThreshold - 0.01;
  for (unsigned I = 0; I != 50; ++I)
    G.update(JustBelow, Now += 1000);
  EXPECT_EQ(G.tier(), 1u) << "flapped without hysteresis";
  EXPECT_EQ(G.transitions(), 1u);
  EXPECT_EQ(G.lastChangeUs(), ChangedAt);

  // Draining the queue steps back down and re-stamps the transition.
  for (unsigned I = 0; I != 200; ++I)
    G.update(0.0, Now += 1000);
  EXPECT_EQ(G.tier(), 0u);
  EXPECT_EQ(G.entries(0), 1u);
  EXPECT_EQ(G.transitions(), 2u);
  EXPECT_GT(G.lastChangeUs(), ChangedAt);

  // Below the threshold nothing moves; at it, tier 1 is entered again.
  for (unsigned I = 0; I != 50; ++I)
    G.update(DegradeGovernor::UpThreshold - 0.05, Now += 1000);
  EXPECT_EQ(G.tier(), 0u);
  for (unsigned I = 0; I != 50; ++I)
    G.update(0.6, Now += 1000);
  EXPECT_EQ(G.tier(), 1u);
  EXPECT_EQ(G.entries(1), 2u);
}

TEST(DegradeGovernorTest, DisabledGovernorNeverMoves) {
  DegradeGovernor G(/*Enabled=*/false);
  for (unsigned I = 0; I != 100; ++I)
    G.update(1.0, 1000 * (I + 1));
  EXPECT_EQ(G.tier(), 0u);
  EXPECT_EQ(G.transitions(), 0u);
  EXPECT_EQ(G.lastChangeUs(), 0u);
}

//===----------------------------------------------------------------------===//
// Stats, health, tracing, flight recorder
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, StatsDocumentCountsEveryRequest) {
  obs::resetHistograms(); // e2e count below must equal this test's compiles
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  CompileService Svc(Cfg);
  Collector Col;
  const unsigned N = 5;
  for (unsigned I = 0; I != N; ++I)
    Svc.handle(compileRequest(std::to_string(I), genSource(1 + (I % 2))),
               Col.sink());
  Col.waitFor(N);

  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(Svc.statsJSON(), V, Err)) << Err;
  EXPECT_EQ(V.find("schema")->Str, "ursa.service_stats.v1");
  EXPECT_GT(V.find("now_us")->Num, 0);
  EXPECT_EQ(V.find("workers")->Num, 2);
  const obs::JsonValue *Req = V.find("requests");
  ASSERT_NE(Req, nullptr);
  EXPECT_EQ(Req->find("received")->Num, N);
  EXPECT_EQ(Req->find("completed")->Num, N);
  const obs::JsonValue *Queue = V.find("queue");
  ASSERT_NE(Queue, nullptr);
  EXPECT_EQ(Queue->find("depth")->Num, 0);
  const obs::JsonValue *Deg = V.find("degradation");
  ASSERT_NE(Deg, nullptr);
  EXPECT_EQ(Deg->find("tier")->Num, 0);
  ASSERT_TRUE(Deg->find("tier_entries")->isArray());
  EXPECT_EQ(Deg->find("tier_entries")->Arr.size(), 2u);

  // The e2e latency histogram saw exactly this test's compiles.
  const obs::JsonValue *Hs = V.find("histograms");
  ASSERT_TRUE(Hs && Hs->isArray());
  bool FoundE2E = false;
  for (const obs::JsonValue &H : Hs->Arr)
    if (H.find("name")->Str == "ursa.service.e2e_us") {
      FoundE2E = true;
      EXPECT_EQ(uint64_t(H.find("count")->Num), N);
      EXPECT_GT(H.find("p50_us")->Num, 0);
      EXPECT_GE(H.find("p99_us")->Num, H.find("p50_us")->Num);
    }
  EXPECT_TRUE(FoundE2E);

  // No flight ring unless asked for; with it, every record has a trace
  // id and the slowest-retained ones carry reconstructable timelines.
  EXPECT_EQ(V.find("flight"), nullptr);
  ASSERT_TRUE(obs::parseJson(Svc.statsJSON(/*IncludeFlight=*/true), V, Err))
      << Err;
  const obs::JsonValue *Flight = V.find("flight");
  ASSERT_NE(Flight, nullptr);
  const obs::JsonValue *Recs = Flight->find("records");
  ASSERT_TRUE(Recs && Recs->isArray());
  ASSERT_EQ(Recs->Arr.size(), N);
  unsigned Timelines = 0;
  for (const obs::JsonValue &R : Recs->Arr) {
    EXPECT_FALSE(R.find("trace_id")->Str.empty());
    EXPECT_EQ(R.find("status")->Str, "ok");
    if (const obs::JsonValue *Sp = R.find("spans"); Sp && !Sp->Arr.empty())
      ++Timelines;
  }
  EXPECT_GT(Timelines, 0u) << "no request kept a span timeline";
}

TEST(CompileServiceTest, FlightRecordSharesTheRequestTraceId) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  Collector Col;
  ServiceRequest R = compileRequest("traced", genSource(3));
  R.TraceId = "t-unit-00000001";
  Svc.handle(R, Col.sink());
  auto Got = Col.waitFor(1);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].TraceId, "t-unit-00000001") << "trace id not echoed";

  RequestRecord Slowest = Svc.flight().slowest();
  ASSERT_NE(Slowest.Seq, 0u);
  EXPECT_EQ(Slowest.TraceId, "t-unit-00000001");
  EXPECT_EQ(Slowest.Id, "traced");
  // The timeline reconstructs the pipeline stages under that trace id.
  ASSERT_FALSE(Slowest.Spans.empty());
  bool SawParse = false, SawMeasure = false;
  for (const RequestRecord::StageSpan &S : Slowest.Spans) {
    SawParse |= S.Name == "service.parse";
    SawMeasure |= S.Name.rfind("ursa.measure", 0) == 0;
  }
  EXPECT_TRUE(SawParse);
  EXPECT_TRUE(SawMeasure);
  EXPECT_GT(Slowest.TotalMs, 0.0);
}

TEST(CompileServiceTest, HealthReflectsPressure) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(Svc.healthJSON(), V, Err)) << Err;
  EXPECT_EQ(V.find("schema")->Str, "ursa.service_health.v1");
  EXPECT_EQ(V.find("status")->Str, "ok");
  ASSERT_NE(V.find("queue_depth"), nullptr);
  ASSERT_NE(V.find("uptime_s"), nullptr);
}

TEST(CompileServiceTest, PrometheusExpositionIsWellFormed) {
  obs::resetHistograms(); // exact bucket counts asserted below
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  Collector Col;
  Svc.handle(compileRequest("p", genSource(4)), Col.sink());
  Col.waitFor(1);

  std::string Text = Svc.statsPrometheus();
  // Untyped counters and gauges with sanitized names...
  EXPECT_NE(Text.find("ursa_service_requests_received"), std::string::npos);
  EXPECT_NE(Text.find("ursa_service_queue_depth"), std::string::npos);
  // ...and histograms in cumulative-bucket form ending at +Inf.
  EXPECT_NE(Text.find("ursa_service_e2e_us_bucket{le=\""), std::string::npos);
  EXPECT_NE(Text.find("ursa_service_e2e_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("ursa_service_e2e_us_sum"), std::string::npos);
  EXPECT_NE(Text.find("ursa_service_e2e_us_count 1"), std::string::npos);
  // Exposition format: every line is "name[{labels}] value" or a comment.
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    ASSERT_NE(Eol, std::string::npos) << "unterminated final line";
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(Line[0]))) << Line;
  }
}

//===----------------------------------------------------------------------===//
// Socket server, end to end
//===----------------------------------------------------------------------===//

TEST(ServiceServer, PipelinedClientMatchesDirectPath) {
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  std::string Path = testSocketPath("pipelined");
  Server Srv(Path, Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  std::thread Runner([&] { Srv.run(); });

  {
    StatusOr<ServiceClient> COr = ServiceClient::connect(Path);
    ASSERT_TRUE(COr.isOk()) << COr.status().str();
    ServiceClient &Client = *COr;

    // Pipeline: send everything, then collect; responses may arrive in
    // any order and are matched by id.
    const unsigned N = 10;
    for (unsigned I = 0; I != N; ++I)
      ASSERT_TRUE(
          Client.send(compileRequest(std::to_string(I), genSource(I + 1)))
              .isOk());
    std::vector<ServiceResponse> Got(N);
    std::vector<bool> Seen(N, false);
    for (unsigned I = 0; I != N; ++I) {
      ServiceResponse R;
      bool Closed = false;
      ASSERT_TRUE(Client.recv(R, Closed).isOk());
      ASSERT_FALSE(Closed);
      unsigned Idx = unsigned(std::atoi(R.Id.c_str()));
      ASSERT_LT(Idx, N);
      ASSERT_FALSE(Seen[Idx]);
      Seen[Idx] = true;
      Got[Idx] = R;
    }
    MachineSpec Spec;
    Spec.Fus = 2;
    Spec.Regs = 4;
    for (unsigned I = 0; I != N; ++I) {
      ASSERT_EQ(Got[I].Status, ServiceResponse::StatusKind::Ok)
          << Got[I].Error;
      EXPECT_EQ(Got[I].Text, directText(genSource(I + 1), Spec));
    }

    // Ping, report, shutdown over the same connection.
    ServiceRequest Ping;
    Ping.Op = ServiceRequest::OpKind::Ping;
    Ping.Id = "ping";
    ServiceResponse R;
    ASSERT_TRUE(Client.call(Ping, R).isOk());
    EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Ok);

    ServiceRequest Report;
    Report.Op = ServiceRequest::OpKind::Report;
    Report.Id = "rep";
    ASSERT_TRUE(Client.call(Report, R).isOk());
    ASSERT_EQ(R.Status, ServiceResponse::StatusKind::Report);
    obs::JsonValue V;
    std::string Err;
    ASSERT_TRUE(obs::parseJson(R.Text, V, Err)) << Err;
    EXPECT_EQ(V.find("schema")->Str, "ursa.service_report.v1");
    EXPECT_EQ(V.find("requests")->find("completed")->Num, N);

    ServiceRequest Bye;
    Bye.Op = ServiceRequest::OpKind::Shutdown;
    Bye.Id = "bye";
    ASSERT_TRUE(Client.call(Bye, R).isOk());
    EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Bye);
  }
  Runner.join(); // run() returns once the shutdown drains
  EXPECT_NE(::access(Path.c_str(), F_OK), 0) << "socket file not removed";
}

TEST(ServiceServer, ConcurrentClientsAllSucceed) {
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  std::string Path = testSocketPath("concurrent");
  Server Srv(Path, Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  std::thread Runner([&] { Srv.run(); });

  const unsigned Clients = 4, PerClient = 5;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned CI = 0; CI != Clients; ++CI)
    Threads.emplace_back([&, CI] {
      StatusOr<ServiceClient> COr = ServiceClient::connect(Path);
      if (!COr.isOk()) {
        ++Failures;
        return;
      }
      MachineSpec Spec;
      Spec.Fus = 2;
      Spec.Regs = 4;
      for (unsigned I = 0; I != PerClient; ++I) {
        uint64_t Seed = 1 + (CI * PerClient + I) % 7;
        ServiceResponse R;
        Status St = COr->call(
            compileRequest(std::to_string(CI) + "." + std::to_string(I),
                           genSource(Seed)),
            R);
        if (!St.isOk() || R.Status != ServiceResponse::StatusKind::Ok ||
            R.Text != directText(genSource(Seed), Spec))
          ++Failures;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  Srv.requestStop();
  Runner.join();
}

TEST(ServiceServer, MalformedFrameGetsErrorResponse) {
  ServiceConfig Cfg;
  std::string Path = testSocketPath("malformed");
  Server Srv(Path, Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  std::thread Runner([&] { Srv.run(); });

  {
    StatusOr<UnixSocket> SOr = UnixSocket::connect(Path);
    ASSERT_TRUE(SOr.isOk());
    ASSERT_TRUE(SOr->sendFrame("this is not json").isOk());
    std::string Frame;
    Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
    ASSERT_TRUE(SOr->recvFrame(Frame, Ev).isOk());
    ASSERT_EQ(Ev, Socket::FrameEvent::Frame);
    ServiceResponse R;
    ASSERT_TRUE(parseResponse(Frame, R).isOk());
    EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Error);
    EXPECT_FALSE(R.Error.empty());

    // The connection survives a bad request.
    ServiceRequest Ping;
    Ping.Op = ServiceRequest::OpKind::Ping;
    ASSERT_TRUE(SOr->sendFrame(writeRequest(Ping)).isOk());
    ASSERT_TRUE(SOr->recvFrame(Frame, Ev).isOk());
    ASSERT_EQ(Ev, Socket::FrameEvent::Frame);
    ASSERT_TRUE(parseResponse(Frame, R).isOk());
    EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Ok);
  }

  Srv.requestStop();
  Runner.join();
}

TEST(ServiceServer, StatsAndHealthVerbsOverTheWire) {
  obs::resetHistograms();
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  std::string Path = testSocketPath("statsverb");
  Server Srv(Path, Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  std::thread Runner([&] { Srv.run(); });

  {
    StatusOr<ServiceClient> COr = ServiceClient::connect(Path);
    ASSERT_TRUE(COr.isOk()) << COr.status().str();
    ServiceClient &Client = *COr;

    // A compile whose trace id the client stamps for us.
    ServiceResponse CompResp;
    ASSERT_TRUE(Client.call(compileRequest("c1", genSource(5)), CompResp)
                    .isOk());
    ASSERT_EQ(CompResp.Status, ServiceResponse::StatusKind::Ok)
        << CompResp.Error;
    EXPECT_FALSE(CompResp.TraceId.empty())
        << "client did not stamp a trace id";
    EXPECT_EQ(CompResp.TraceId.rfind("t-", 0), 0u) << CompResp.TraceId;

    // stats (json) with the flight ring: the compile's record is there,
    // under the client-stamped trace id, with its stage timeline.
    ServiceRequest SReq;
    SReq.Op = ServiceRequest::OpKind::Stats;
    SReq.Id = "s1";
    SReq.IncludeFlight = true;
    ServiceResponse SResp;
    ASSERT_TRUE(Client.call(SReq, SResp).isOk());
    ASSERT_EQ(SResp.Status, ServiceResponse::StatusKind::Stats);
    obs::JsonValue V;
    std::string Err;
    ASSERT_TRUE(obs::parseJson(SResp.Text, V, Err)) << Err;
    EXPECT_EQ(V.find("schema")->Str, "ursa.service_stats.v1");
    EXPECT_EQ(V.find("requests")->find("completed")->Num, 1);
    const obs::JsonValue *Recs = V.find("flight")->find("records");
    ASSERT_TRUE(Recs && Recs->isArray());
    ASSERT_EQ(Recs->Arr.size(), 1u);
    EXPECT_EQ(Recs->Arr[0].find("trace_id")->Str, CompResp.TraceId);
    const obs::JsonValue *Spans = Recs->Arr[0].find("spans");
    ASSERT_TRUE(Spans && Spans->isArray() && !Spans->Arr.empty())
        << "slowest request lost its timeline";

    // stats (prometheus).
    SReq.Id = "s2";
    SReq.StatsFormat = "prometheus";
    SReq.IncludeFlight = false;
    ASSERT_TRUE(Client.call(SReq, SResp).isOk());
    ASSERT_EQ(SResp.Status, ServiceResponse::StatusKind::Stats);
    EXPECT_NE(SResp.Text.find("ursa_service_e2e_us_count 1"),
              std::string::npos);

    // health.
    ServiceRequest HReq;
    HReq.Op = ServiceRequest::OpKind::Health;
    HReq.Id = "h1";
    ServiceResponse HResp;
    ASSERT_TRUE(Client.call(HReq, HResp).isOk());
    ASSERT_EQ(HResp.Status, ServiceResponse::StatusKind::Stats);
    ASSERT_TRUE(obs::parseJson(HResp.Text, V, Err)) << Err;
    EXPECT_EQ(V.find("schema")->Str, "ursa.service_health.v1");
    EXPECT_EQ(V.find("status")->Str, "ok");
  }

  Srv.requestStop();
  Runner.join();
}

TEST(ServiceServer, ExplicitTraceIdSurvivesTheRoundTrip) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  std::string Path = testSocketPath("traceid");
  Server Srv(Path, Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  std::thread Runner([&] { Srv.run(); });

  {
    StatusOr<ServiceClient> COr = ServiceClient::connect(Path);
    ASSERT_TRUE(COr.isOk());
    // A caller-chosen id (with characters that need JSON escaping) is
    // preserved verbatim, not replaced by a client-stamped one.
    ServiceRequest R = compileRequest("c-esc", genSource(6));
    R.TraceId = "trace \"quoted\"\n\tüñí";
    ServiceResponse Resp;
    ASSERT_TRUE(COr->call(R, Resp).isOk());
    ASSERT_EQ(Resp.Status, ServiceResponse::StatusKind::Ok) << Resp.Error;
    EXPECT_EQ(Resp.TraceId, R.TraceId);
  }

  Srv.requestStop();
  Runner.join();
}

//===----------------------------------------------------------------------===//
// Supervised-retry jitter seeding
//===----------------------------------------------------------------------===//

TEST(RetryJitter, BackoffStaysInsideTheJitterWindow) {
  RetryPolicy P;
  P.BackoffBaseMs = 10;
  P.BackoffMaxMs = 1000;
  EXPECT_EQ(supervisedBackoffMs(P, 0x1234, 0), 0u) << "try 0 never sleeps";
  for (unsigned Try = 1; Try <= 10; ++Try) {
    unsigned Cap = std::min(P.BackoffMaxMs, P.BackoffBaseMs << (Try - 1));
    unsigned D = supervisedBackoffMs(P, 0x1234, Try);
    EXPECT_GE(D, Cap / 2) << "try " << Try;
    EXPECT_LE(D, Cap) << "try " << Try;
  }
  // A zero-cap policy (BackoffBaseMs = 0) never sleeps at all.
  RetryPolicy Z;
  Z.BackoffBaseMs = 0;
  EXPECT_EQ(supervisedBackoffMs(Z, 0x1234, 3), 0u);
}

TEST(RetryJitter, DeterministicPerKeyAndTry) {
  RetryPolicy P;
  for (unsigned Try = 1; Try <= 6; ++Try)
    EXPECT_EQ(supervisedBackoffMs(P, 0xabcdef, Try),
              supervisedBackoffMs(P, 0xabcdef, Try))
        << "try " << Try;
}

TEST(RetryJitter, DistinctClientsDrawDistinctSchedules) {
  // The regression this pins: two clients built from the same RetryPolicy
  // used to draw identical backoff schedules (RNG seeded from Policy.Seed
  // alone), synchronizing their reconnect storms against a restarting
  // server. With instance-tag keying, equal policies and equal trace ids
  // still diverge.
  RetryPolicy P;
  P.BackoffBaseMs = 100;
  P.BackoffMaxMs = 100000;
  const uint64_t KeyA = clientJitterKey(/*InstanceTag=*/1, "t-same-trace");
  const uint64_t KeyB = clientJitterKey(/*InstanceTag=*/2, "t-same-trace");
  EXPECT_NE(KeyA, KeyB);
  bool Diverged = false;
  for (unsigned Try = 1; Try <= 8 && !Diverged; ++Try)
    Diverged = supervisedBackoffMs(P, KeyA, Try) !=
               supervisedBackoffMs(P, KeyB, Try);
  EXPECT_TRUE(Diverged) << "identical schedules across clients";
}

TEST(RetryJitter, TraceIdSeparatesCallsOnOneClient) {
  RetryPolicy P;
  P.BackoffBaseMs = 100;
  P.BackoffMaxMs = 100000;
  const uint64_t KeyA = clientJitterKey(7, "t-00000001-000001");
  const uint64_t KeyB = clientJitterKey(7, "t-00000001-000002");
  EXPECT_NE(KeyA, KeyB);
  bool Diverged = false;
  for (unsigned Try = 1; Try <= 8 && !Diverged; ++Try)
    Diverged = supervisedBackoffMs(P, KeyA, Try) !=
               supervisedBackoffMs(P, KeyB, Try);
  EXPECT_TRUE(Diverged) << "identical schedules across trace ids";
}

TEST(RetryJitter, ConnectedClientsGetUniqueInstanceTags) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  std::string Path = testSocketPath("jitter");
  Server Srv(Path, Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  std::thread Runner([&] { Srv.run(); });

  {
    StatusOr<ServiceClient> A = ServiceClient::connect(Path);
    StatusOr<ServiceClient> B = ServiceClient::connect(Path);
    ASSERT_TRUE(A.isOk() && B.isOk());
    EXPECT_NE(A->instanceTag(), B->instanceTag());
    EXPECT_NE(A->instanceTag(), 0u);
    EXPECT_NE(B->instanceTag(), 0u);
  }

  Srv.requestStop();
  Runner.join();
}
