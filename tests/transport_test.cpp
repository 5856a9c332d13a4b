//===- tests/transport_test.cpp - TCP transport and wire faults -----------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The transport story: TCP endpoints next to Unix sockets,
// the wire fault matrix (every WireFault either surfaces as a clean
// Status on the injecting side or is healed by the server dropping the
// connection — never a hang, crash, or duplicate compile), fuzz-style
// malformed wire input (oversized length prefixes, zero-length frames,
// JSON depth bombs inside valid frames), idle-connection reaping, and
// the supervised client's at-most-once retry discipline checked against
// a scripted fake server that counts what it actually received.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Server.h"
#include "support/Socket.h"
#include "ursa/FaultInjector.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ursa;
using namespace ursa::service;

namespace {

std::string genSource(uint64_t Seed) {
  GenOptions G;
  G.NumInstrs = 24;
  G.Window = 8;
  G.Seed = Seed;
  return generateTrace(G).str();
}

ServiceRequest compileRequest(std::string Id, uint64_t Seed) {
  ServiceRequest R;
  R.Op = ServiceRequest::OpKind::Compile;
  R.Id = std::move(Id);
  R.Source = genSource(Seed);
  R.Machine.Fus = 2;
  R.Machine.Regs = 4;
  return R;
}

/// A running TCP server plus the endpoint string to reach it.
struct TcpServer {
  Server Srv;
  std::thread Runner;
  std::string Endpoint;

  explicit TcpServer(ServiceConfig Cfg) : Srv("tcp:0", Cfg) {
    Status St = Srv.start();
    EXPECT_TRUE(St.isOk()) << St.str();
    Endpoint = "tcp:" + std::to_string(Srv.port());
    Runner = std::thread([this] { Srv.run(); });
  }
  ~TcpServer() {
    Srv.requestStop();
    Runner.join();
  }
};

/// One healthy request/response over a fresh connection — the liveness
/// probe every fault test ends with.
void expectServerHealthy(const std::string &Endpoint) {
  StatusOr<ServiceClient> COr = ServiceClient::connect(Endpoint);
  ASSERT_TRUE(COr.isOk()) << COr.status().str();
  ServiceResponse R;
  Status St = COr->call(compileRequest("probe", 5), R);
  ASSERT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Ok) << R.Error;
}

} // namespace

//===----------------------------------------------------------------------===//
// Endpoints and raw TCP framing
//===----------------------------------------------------------------------===//

TEST(SocketEndpoints, ParseCoversAllSpellings) {
  bool IsTcp;
  std::string Host;
  uint16_t Port;

  ASSERT_TRUE(Socket::parseEndpoint("unix:/tmp/x.sock", IsTcp, Host, Port));
  EXPECT_FALSE(IsTcp);
  EXPECT_EQ(Host, "/tmp/x.sock");

  ASSERT_TRUE(Socket::parseEndpoint("/tmp/bare.sock", IsTcp, Host, Port));
  EXPECT_FALSE(IsTcp);
  EXPECT_EQ(Host, "/tmp/bare.sock");

  ASSERT_TRUE(Socket::parseEndpoint("tcp:8080", IsTcp, Host, Port));
  EXPECT_TRUE(IsTcp);
  EXPECT_EQ(Host, "");
  EXPECT_EQ(Port, 8080);

  ASSERT_TRUE(Socket::parseEndpoint("tcp:127.0.0.1:9999", IsTcp, Host, Port));
  EXPECT_TRUE(IsTcp);
  EXPECT_EQ(Host, "127.0.0.1");
  EXPECT_EQ(Port, 9999);

  EXPECT_FALSE(Socket::parseEndpoint("tcp:", IsTcp, Host, Port));
  EXPECT_FALSE(Socket::parseEndpoint("tcp:notaport", IsTcp, Host, Port));
  EXPECT_FALSE(Socket::parseEndpoint("tcp:host:notaport", IsTcp, Host, Port));
  EXPECT_FALSE(Socket::parseEndpoint("", IsTcp, Host, Port));
}

TEST(SocketEndpoints, ParsesBracketedIpv6) {
  bool IsTcp;
  std::string Host;
  uint16_t Port;

  ASSERT_TRUE(Socket::parseEndpoint("tcp:[::1]:8080", IsTcp, Host, Port));
  EXPECT_TRUE(IsTcp);
  EXPECT_EQ(Host, "::1");
  EXPECT_EQ(Port, 8080);

  ASSERT_TRUE(
      Socket::parseEndpoint("tcp:[fe80::1234:5]:9", IsTcp, Host, Port));
  EXPECT_EQ(Host, "fe80::1234:5");
  EXPECT_EQ(Port, 9);

  // The brackets are endpoint syntax, not address syntax: the parsed host
  // is the bare address the resolver wants.
  ASSERT_TRUE(Socket::parseEndpoint("tcp:[2001:db8::1]:65535", IsTcp, Host,
                                    Port));
  EXPECT_EQ(Host, "2001:db8::1");
  EXPECT_EQ(Port, 65535);
}

TEST(SocketEndpoints, Ipv6ErrorsNameTheProblem) {
  bool IsTcp;
  std::string Host;
  uint16_t Port;
  std::string Err;

  // Unterminated bracket.
  EXPECT_FALSE(Socket::parseEndpoint("tcp:[::1:80", IsTcp, Host, Port, &Err));
  EXPECT_NE(Err.find("unterminated"), std::string::npos) << Err;

  // Bracketed but no port.
  Err.clear();
  EXPECT_FALSE(Socket::parseEndpoint("tcp:[::1]", IsTcp, Host, Port, &Err));
  EXPECT_NE(Err.find("PORT"), std::string::npos) << Err;

  // Empty address inside the brackets.
  Err.clear();
  EXPECT_FALSE(Socket::parseEndpoint("tcp:[]:80", IsTcp, Host, Port, &Err));
  EXPECT_NE(Err.find("empty"), std::string::npos) << Err;

  // A raw multi-colon host is ambiguous (is ":80" part of the address?);
  // the error teaches the bracket spelling — with the caller's own
  // endpoint rewritten into it, copy-pasteable.
  Err.clear();
  EXPECT_FALSE(
      Socket::parseEndpoint("tcp:2001:db8::1:80", IsTcp, Host, Port, &Err));
  EXPECT_NE(Err.find("bracketed"), std::string::npos) << Err;
  EXPECT_NE(Err.find("[2001:db8::1]:80"), std::string::npos) << Err;
}

TEST(SocketEndpoints, ConnectErrorRebracketsIpv6Hosts) {
  // Nothing listens on this port; the refusal's message must show the
  // endpoint in its bracketed spelling, copy-pasteable back into --connect.
  StatusOr<Socket> SOr = Socket::connectEndpoint("tcp:[::1]:1");
  ASSERT_FALSE(SOr.isOk());
  EXPECT_NE(SOr.status().message().find("[::1]:1"), std::string::npos)
      << SOr.status().str();
}

TEST(SocketEndpoints, Ipv6LoopbackRoundTripsWhenAvailable) {
  StatusOr<Socket> LOr = Socket::listenTcp("::1", 0);
  if (!LOr.isOk())
    GTEST_SKIP() << "no IPv6 loopback here: " << LOr.status().str();
  uint16_t Port = LOr->localPort();
  ASSERT_NE(Port, 0);

  std::thread Peer([&] {
    StatusOr<Socket> A = LOr->accept(2000);
    ASSERT_TRUE(A.isOk() && A->valid());
    std::string In;
    Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
    ASSERT_TRUE(A->recvFrame(In, Ev).isOk());
    ASSERT_TRUE(A->sendFrame("v6:" + In).isOk());
  });
  StatusOr<Socket> COr =
      Socket::connectEndpoint("tcp:[::1]:" + std::to_string(Port));
  ASSERT_TRUE(COr.isOk()) << COr.status().str();
  ASSERT_TRUE(COr->sendFrame("ping").isOk());
  std::string Back;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  ASSERT_TRUE(COr->recvFrame(Back, Ev).isOk());
  EXPECT_EQ(Back, "v6:ping");
  Peer.join();
}

TEST(SocketTcp, FramesRoundTripBothWays) {
  StatusOr<Socket> LOr = Socket::listenTcp("", 0);
  ASSERT_TRUE(LOr.isOk()) << LOr.status().str();
  uint16_t Port = LOr->localPort();
  ASSERT_NE(Port, 0);

  std::thread Peer([&] {
    StatusOr<Socket> A = LOr->accept(2000);
    ASSERT_TRUE(A.isOk() && A->valid());
    std::string In;
    Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
    ASSERT_TRUE(A->recvFrame(In, Ev).isOk());
    ASSERT_EQ(Ev, Socket::FrameEvent::Frame);
    ASSERT_TRUE(A->sendFrame("echo:" + In).isOk());
  });

  StatusOr<Socket> COr = Socket::connectTcp("", Port);
  ASSERT_TRUE(COr.isOk()) << COr.status().str();
  // A payload with embedded NULs and high bytes — framing is 8-bit clean.
  std::string Payload("b\0in\xff" "ary", 8);
  ASSERT_TRUE(COr->sendFrame(Payload).isOk());
  std::string Back;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  ASSERT_TRUE(COr->recvFrame(Back, Ev).isOk());
  EXPECT_EQ(Back, "echo:" + Payload);
  Peer.join();
}

TEST(SocketTcp, OpTimeoutBoundsAMidFrameStall) {
  StatusOr<Socket> LOr = Socket::listenTcp("", 0);
  ASSERT_TRUE(LOr.isOk());
  StatusOr<Socket> COr = Socket::connectTcp("", LOr->localPort());
  ASSERT_TRUE(COr.isOk());
  StatusOr<Socket> AOr = LOr->accept(2000);
  ASSERT_TRUE(AOr.isOk() && AOr->valid());

  // The peer sends a header promising bytes that never come; the 50 ms
  // op deadline turns that into an error instead of a pinned reader.
  ASSERT_TRUE(AOr->setOpTimeoutMs(50).isOk());
  Status Injected =
      injectWireFault(*COr, WireFault::StalledWrite, "stalled-payload", 400);
  EXPECT_TRUE(Injected.isOk()) << Injected.str();

  auto Start = std::chrono::steady_clock::now();
  std::string Out;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  Status St = AOr->recvFrame(Out, Ev);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  EXPECT_FALSE(St.isOk()) << "a stalled frame must not read as complete";
  EXPECT_LT(Ms, 350.0) << "op timeout did not bound the stall";
}

TEST(SocketTcp, IdleFirstByteTimeoutIsDistinctFromAStall) {
  StatusOr<Socket> LOr = Socket::listenTcp("", 0);
  ASSERT_TRUE(LOr.isOk());
  StatusOr<Socket> COr = Socket::connectTcp("", LOr->localPort());
  ASSERT_TRUE(COr.isOk());
  StatusOr<Socket> AOr = LOr->accept(2000);
  ASSERT_TRUE(AOr.isOk() && AOr->valid());

  // Nothing arrives at all: that is IdleTimeout, an OK status — the
  // server's cue to reap, not a transport error.
  std::string Out;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  Status St = AOr->recvFrame(Out, Ev, 64u << 20, /*FirstByteTimeoutMs=*/40);
  EXPECT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(Ev, Socket::FrameEvent::IdleTimeout);

  // A clean close reads as PeerClosed, also OK.
  COr->close();
  St = AOr->recvFrame(Out, Ev, 64u << 20, 1000);
  EXPECT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(Ev, Socket::FrameEvent::PeerClosed);
}

//===----------------------------------------------------------------------===//
// TCP compile service end to end
//===----------------------------------------------------------------------===//

TEST(TcpService, CompilesMatchUnixSocketBehavior) {
  ServiceConfig Cfg;
  Cfg.Workers = 2;
  TcpServer T(Cfg);

  StatusOr<ServiceClient> COr = ServiceClient::connect(T.Endpoint);
  ASSERT_TRUE(COr.isOk()) << COr.status().str();
  const unsigned N = 6;
  for (unsigned I = 0; I != N; ++I)
    ASSERT_TRUE(COr->send(compileRequest(std::to_string(I), I + 1)).isOk());
  unsigned Ok = 0;
  for (unsigned I = 0; I != N; ++I) {
    ServiceResponse R;
    bool Closed = false;
    ASSERT_TRUE(COr->recv(R, Closed).isOk());
    ASSERT_FALSE(Closed);
    Ok += R.Status == ServiceResponse::StatusKind::Ok;
  }
  EXPECT_EQ(Ok, N);
}

//===----------------------------------------------------------------------===//
// Wire fault matrix
//===----------------------------------------------------------------------===//

/// Every injectable wire fault, against a live TCP server with a
/// per-operation IO deadline. The contract for each row: the injection
/// itself never crashes the test process, the server never hangs, and a
/// fresh client still gets service afterwards.
TEST(WireFaultMatrix, EveryFaultIsCaughtOrHealed) {
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.IoTimeoutMs = 100; // heals StalledWrite by unpinning the reader
  TcpServer T(Cfg);

  const WireFault Matrix[] = {
      WireFault::TruncatedFrame,   WireFault::TornHeader,
      WireFault::StalledWrite,     WireFault::MidStreamDisconnect,
      WireFault::GarbageLength,
  };
  std::string Payload = writeRequest(compileRequest("faulty", 3));

  for (WireFault F : Matrix) {
    SCOPED_TRACE(wireFaultName(F));
    StatusOr<Socket> SOr = Socket::connectEndpoint(T.Endpoint);
    ASSERT_TRUE(SOr.isOk()) << SOr.status().str();
    Status St = injectWireFault(*SOr, F, Payload, /*StallMs=*/250);
    // The injection reports honestly but never aborts.
    (void)St;

    // The mangled connection is dead or dying; the server must shrug it
    // off and keep serving. (For StalledWrite the IO deadline fires at
    // 100 ms; the probe below implicitly waits on connect/compile.)
    expectServerHealthy(T.Endpoint);
  }

  // After the whole matrix the server still reports zero compiles lost:
  // every probe answered, nothing wedged a worker.
  ServiceCounters C = T.Srv.service().counters();
  EXPECT_EQ(C.InFlight, 0u);
  EXPECT_EQ(C.Completed, unsigned(std::size(Matrix)));
}

TEST(WireFaultMatrix, FaultsDoNotDuplicateCompiles) {
  // A fault injected *after* a completed request must not make the server
  // run anything twice: received counts exactly the clean requests.
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  Cfg.IoTimeoutMs = 100;
  TcpServer T(Cfg);

  {
    StatusOr<ServiceClient> COr = ServiceClient::connect(T.Endpoint);
    ASSERT_TRUE(COr.isOk());
    ServiceResponse R;
    ASSERT_TRUE(COr->call(compileRequest("one", 7), R).isOk());
    EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Ok);
    // Now mangle the same connection and walk away.
    // (The client object owns the socket; a second raw connection is
    // mangled instead — the server treats each connection independently.)
  }
  {
    StatusOr<Socket> SOr = Socket::connectEndpoint(T.Endpoint);
    ASSERT_TRUE(SOr.isOk());
    (void)injectWireFault(*SOr, WireFault::MidStreamDisconnect,
                          writeRequest(compileRequest("mangled", 8)));
  }
  expectServerHealthy(T.Endpoint);

  ServiceCounters C = T.Srv.service().counters();
  // "one" + the health probe; the mangled frame never became a request.
  EXPECT_EQ(C.Received, 2u);
  EXPECT_EQ(C.Completed, 2u);
}

//===----------------------------------------------------------------------===//
// Fuzz-style malformed wire input
//===----------------------------------------------------------------------===//

TEST(MalformedWire, OversizedLengthPrefixDropsTheConnection) {
  ServiceConfig Cfg;
  TcpServer T(Cfg);

  StatusOr<Socket> SOr = Socket::connectEndpoint(T.Endpoint);
  ASSERT_TRUE(SOr.isOk());
  // 0xFFFFFFFF bytes: no peer should trust it, and the server must sever
  // rather than allocate. We observe the connection dying from our side.
  const char Huge[] = {'\xff', '\xff', '\xff', '\xff', 'x', 'x'};
  (void)SOr->sendRaw(std::string_view(Huge, sizeof(Huge)));
  SOr->setOpTimeoutMs(2000);
  std::string Out;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  Status St = SOr->recvFrame(Out, Ev);
  EXPECT_TRUE(!St.isOk() || Ev == Socket::FrameEvent::PeerClosed)
      << "server kept an out-of-sync connection alive";
  expectServerHealthy(T.Endpoint);
}

TEST(MalformedWire, ZeroLengthFrameIsACleanProtocolError) {
  ServiceConfig Cfg;
  TcpServer T(Cfg);

  StatusOr<Socket> SOr = Socket::connectEndpoint(T.Endpoint);
  ASSERT_TRUE(SOr.isOk());
  ASSERT_TRUE(SOr->sendFrame("").isOk());
  std::string Out;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  ASSERT_TRUE(SOr->recvFrame(Out, Ev).isOk());
  ASSERT_EQ(Ev, Socket::FrameEvent::Frame);
  ServiceResponse R;
  ASSERT_TRUE(parseResponse(Out, R).isOk());
  EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Error);
  // The connection survives; a real request on it still works.
  ServiceRequest Ping;
  Ping.Op = ServiceRequest::OpKind::Ping;
  Ping.Id = "after-empty";
  ASSERT_TRUE(SOr->sendFrame(writeRequest(Ping)).isOk());
  ASSERT_TRUE(SOr->recvFrame(Out, Ev).isOk());
  ASSERT_EQ(Ev, Socket::FrameEvent::Frame);
  ASSERT_TRUE(parseResponse(Out, R).isOk());
  EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Ok);
}

TEST(MalformedWire, JsonDepthBombInAValidFrameIsRejected) {
  ServiceConfig Cfg;
  TcpServer T(Cfg);

  StatusOr<Socket> SOr = Socket::connectEndpoint(T.Endpoint);
  ASSERT_TRUE(SOr.isOk());
  // A perfectly framed payload whose JSON nests 4096 deep: the parser's
  // depth limit must answer with a clean error, not recurse to death.
  std::string Bomb = "{\"schema\":\"ursa.service_request.v1\",\"a\":";
  Bomb += std::string(4096, '[');
  Bomb += "1";
  Bomb += std::string(4096, ']');
  Bomb += "}";
  ASSERT_TRUE(SOr->sendFrame(Bomb).isOk());
  std::string Out;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  ASSERT_TRUE(SOr->recvFrame(Out, Ev).isOk());
  ASSERT_EQ(Ev, Socket::FrameEvent::Frame);
  ServiceResponse R;
  ASSERT_TRUE(parseResponse(Out, R).isOk());
  EXPECT_EQ(R.Status, ServiceResponse::StatusKind::Error);
  expectServerHealthy(T.Endpoint);
}

//===----------------------------------------------------------------------===//
// Idle reaping
//===----------------------------------------------------------------------===//

TEST(IdleReaping, SilentConnectionsAreClosedLoudOnesAreNot) {
  ServiceConfig Cfg;
  Cfg.IdleTimeoutMs = 60;
  TcpServer T(Cfg);

  // A connection that never speaks is reaped: we see a close.
  StatusOr<Socket> Quiet = Socket::connectEndpoint(T.Endpoint);
  ASSERT_TRUE(Quiet.isOk());
  Quiet->setOpTimeoutMs(2000);
  std::string Out;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  Status St = Quiet->recvFrame(Out, Ev);
  EXPECT_TRUE((St.isOk() && Ev == Socket::FrameEvent::PeerClosed) ||
              !St.isOk())
      << "idle connection was never reaped";

  // A connection that keeps making requests inside the window is not.
  StatusOr<ServiceClient> Busy = ServiceClient::connect(T.Endpoint);
  ASSERT_TRUE(Busy.isOk());
  for (unsigned I = 0; I != 4; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ServiceRequest Ping;
    Ping.Op = ServiceRequest::OpKind::Ping;
    Ping.Id = "keepalive";
    ServiceResponse R;
    Status Call = Busy->call(Ping, R);
    ASSERT_TRUE(Call.isOk()) << "reaped while active: " << Call.str();
  }
}

//===----------------------------------------------------------------------===//
// Supervised retries: at-most-once against a scripted peer
//===----------------------------------------------------------------------===//

namespace {

/// A fake server scripted per accepted connection. Counts every request
/// frame it actually reads — the ground truth for at-most-once claims.
struct ScriptedPeer {
  enum class Script {
    CloseBeforeResponse, ///< read the request, clean FIN, no response
    ResetMidResponse,    ///< read the request, start a response, die dirty
    AnswerOk             ///< read the request, answer it properly
  };

  Socket Listener;
  std::string Endpoint;
  std::vector<Script> Scripts;
  std::atomic<unsigned> RequestsSeen{0};
  std::thread Runner;

  explicit ScriptedPeer(std::vector<Script> S) : Scripts(std::move(S)) {
    StatusOr<Socket> LOr = Socket::listenTcp("", 0);
    EXPECT_TRUE(LOr.isOk());
    Listener = std::move(*LOr);
    Endpoint = "tcp:" + std::to_string(Listener.localPort());
    Runner = std::thread([this] { serve(); });
  }
  ~ScriptedPeer() {
    // shutdown() wakes a serve() blocked in accept(); the listener closes
    // only after the thread that reads it is joined.
    Listener.shutdown();
    Runner.join();
  }

  void serve() {
    // Every script ends by closing its connection, so each one serves a
    // fresh accept.
    for (Script S : Scripts) {
      StatusOr<Socket> AOr = Listener.accept(5000);
      if (!AOr.isOk() || !AOr->valid())
        return;
      Socket Live = std::move(*AOr);
      std::string Frame;
      Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
      if (!Live.recvFrame(Frame, Ev).isOk() ||
          Ev == Socket::FrameEvent::PeerClosed) {
        Live.close();
        continue;
      }
      ++RequestsSeen;
      ServiceRequest R;
      if (!parseRequest(Frame, R).isOk()) {
        Live.close();
        continue;
      }
      switch (S) {
      case Script::CloseBeforeResponse:
        Live.close(); // clean FIN before any response byte
        break;
      case Script::ResetMidResponse: {
        ServiceResponse Resp;
        Resp.Status = ServiceResponse::StatusKind::Ok;
        Resp.Id = R.Id;
        (void)injectWireFault(Live, WireFault::MidStreamDisconnect,
                              writeResponse(Resp));
        Live.close();
        break;
      }
      case Script::AnswerOk: {
        ServiceResponse Resp;
        Resp.Status = ServiceResponse::StatusKind::Ok;
        Resp.Id = R.Id;
        Resp.Text = "scripted-ok";
        (void)Live.sendFrame(writeResponse(Resp));
        // Let the client read before the socket drops.
        std::string Dummy;
        Socket::FrameEvent Ev2 = Socket::FrameEvent::Frame;
        (void)Live.recvFrame(Dummy, Ev2);
        Live.close();
        break;
      }
      }
    }
  }
};

} // namespace

TEST(SupervisedRetry, CleanPreResponseCloseIsRetriedOnce) {
  // Script: first connection reads the request and closes cleanly (the
  // server provably never answered — safe to retry); the second answers.
  ScriptedPeer Peer({ScriptedPeer::Script::CloseBeforeResponse,
                     ScriptedPeer::Script::AnswerOk});

  RetryPolicy P;
  P.MaxRetries = 3;
  P.BackoffBaseMs = 1;
  StatusOr<ServiceClient> COr = ServiceClient::connectWithRetry(Peer.Endpoint, P);
  ASSERT_TRUE(COr.isOk()) << COr.status().str();

  ServiceRequest R;
  R.Op = ServiceRequest::OpKind::Ping;
  R.Id = "supervised";
  ServiceResponse Out;
  Status St = COr->callSupervised(R, Out);
  ASSERT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(Out.Text, "scripted-ok");
  EXPECT_EQ(Peer.RequestsSeen.load(), 2u)
      << "exactly one retry of a provably-unstarted request";
}

TEST(SupervisedRetry, DirtyMidResponseFailureIsNeverRetried) {
  // The peer dies *inside* the response: the request may have executed, so
  // the at-most-once rule forbids a replay — the client must fail without
  // ever sending a second copy.
  ScriptedPeer Peer({ScriptedPeer::Script::ResetMidResponse,
                     ScriptedPeer::Script::AnswerOk});

  RetryPolicy P;
  P.MaxRetries = 3;
  P.BackoffBaseMs = 1;
  StatusOr<ServiceClient> COr = ServiceClient::connectWithRetry(Peer.Endpoint, P);
  ASSERT_TRUE(COr.isOk()) << COr.status().str();

  ServiceRequest R;
  R.Op = ServiceRequest::OpKind::Ping;
  R.Id = "at-most-once";
  ServiceResponse Out;
  Status St = COr->callSupervised(R, Out);
  EXPECT_FALSE(St.isOk()) << "a mid-response reset cannot succeed";
  // Give any wrongly-scheduled retry a moment to land before asserting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(Peer.RequestsSeen.load(), 1u)
      << "the request was replayed after an indeterminate failure";
}

TEST(SupervisedRetry, ReconnectsAfterServerRestartOnTheSameEndpoint) {
  // A real server drains and a new one comes up on the same Unix path; a
  // supervised call spanning the gap reconnects and succeeds.
  std::string Path =
      "/tmp/ursa_transport_restart_" + std::to_string(::getpid()) + ".sock";
  ServiceConfig Cfg;

  auto StartServer = [&] {
    auto S = std::make_unique<Server>(Path, Cfg);
    Status St = S->start();
    EXPECT_TRUE(St.isOk()) << St.str();
    return S;
  };

  std::unique_ptr<Server> Srv = StartServer();
  std::thread Run1([&] { Srv->run(); });
  RetryPolicy P;
  P.MaxRetries = 5;
  P.BackoffBaseMs = 5;
  StatusOr<ServiceClient> COr = ServiceClient::connectWithRetry(Path, P);
  ASSERT_TRUE(COr.isOk());
  ServiceResponse Out;
  ASSERT_TRUE(COr->callSupervised(compileRequest("before", 2), Out).isOk());
  EXPECT_EQ(Out.Status, ServiceResponse::StatusKind::Ok);

  Srv->requestStop();
  Run1.join();
  Srv = StartServer();
  std::thread Run2([&] { Srv->run(); });

  // The old connection is gone; the supervised call notices (clean close
  // or EPIPE, both retryable) and lands on the new server.
  Status St = COr->callSupervised(compileRequest("after", 3), Out);
  EXPECT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(Out.Status, ServiceResponse::StatusKind::Ok);

  Srv->requestStop();
  Run2.join();
}

TEST(SupervisedRetry, ConnectRefusedExhaustsTheBudgetThenFails) {
  // Nothing listens here; the supervised connect burns its retries and
  // reports the refusal rather than hanging.
  RetryPolicy P;
  P.MaxRetries = 2;
  P.BackoffBaseMs = 1;
  P.BackoffMaxMs = 4;
  auto Start = std::chrono::steady_clock::now();
  StatusOr<ServiceClient> COr =
      ServiceClient::connectWithRetry("tcp:127.0.0.1:1", P);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  EXPECT_FALSE(COr.isOk());
  EXPECT_LT(Ms, 2000.0) << "refused connect should fail fast";
}
