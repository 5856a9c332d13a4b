//===- service/Client.cpp - Compile-service client ------------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include "obs/Stats.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <thread>

#include <unistd.h>

using namespace ursa;
using namespace ursa::service;

URSA_STAT(StatClientRetries, "ursa.client.retries",
          "supervised requests re-sent after a retryable failure");
URSA_STAT(StatClientReconnects, "ursa.client.reconnects",
          "connections re-established by the supervised client");
URSA_STAT(StatClientBackoffMs, "ursa.client.backoff_ms",
          "total milliseconds slept in retry backoff");
URSA_STAT(StatClientShedRetries, "ursa.client.shed_retries",
          "retries caused by a shed (load-refused) response");
URSA_STAT(StatClientGiveUps, "ursa.client.give_ups",
          "supervised requests that exhausted retries or their deadline");

URSA_HISTO(HistClientE2EUs, "ursa.client.e2e_us",
           "client-observed end-to-end request latency");

obs::Histogram &ursa::service::clientLatencyHistogram() {
  return HistClientE2EUs;
}

std::string ursa::service::makeTraceId() {
  // Tag: process-unique without consulting the wall clock; the steady
  // clock at first use plus the pid is unique enough for correlating
  // concurrent clients against one server's records.
  static const uint64_t Tag = [] {
    uint64_t T =
        uint64_t(std::chrono::steady_clock::now().time_since_epoch().count());
    return (T ^ (T >> 32) ^ (uint64_t(::getpid()) << 16)) & 0xffffffffu;
  }();
  static std::atomic<uint64_t> Counter{0};
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "t-%08llx-%06llu",
                (unsigned long long)Tag,
                (unsigned long long)Counter.fetch_add(
                    1, std::memory_order_relaxed));
  return Buf;
}

/// Process-unique instance tags. Every connected client draws one, so
/// clients built from identical policies (the common case — one RetryPolicy
/// literal shared across a worker pool) still jitter independently.
static uint64_t nextInstanceTag() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t ursa::service::clientJitterKey(uint64_t InstanceTag,
                                        std::string_view TraceId) {
  // FNV-1a over the trace id, then mix in the instance tag. Either axis
  // alone de-collides: two clients share no tag, two supervised calls on
  // one client share no trace id.
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : TraceId) {
    H ^= uint64_t(static_cast<unsigned char>(C));
    H *= 0x100000001b3ULL;
  }
  return H ^ (InstanceTag * 0x9e3779b97f4a7c15ULL);
}

unsigned ursa::service::supervisedBackoffMs(const RetryPolicy &Policy,
                                            uint64_t JitterKey, unsigned Try) {
  if (!Try)
    return 0; // the initial attempt never sleeps
  unsigned Cap = std::min(Policy.BackoffMaxMs,
                          Policy.BackoffBaseMs << std::min(Try - 1, 31u));
  if (!Cap)
    return 0;
  RNG G(Policy.Seed ^ JitterKey ^ (0x9e3779b97f4a7c15ULL * Try));
  return Cap / 2 + unsigned(G.below(Cap / 2 + 1));
}

StatusOr<ServiceClient> ServiceClient::connect(const std::string &Endpoint) {
  ignoreSigpipe();
  StatusOr<Socket> S = Socket::connectEndpoint(Endpoint);
  if (!S.isOk())
    return S.status();
  ServiceClient C(std::move(*S));
  C.Endpoint = Endpoint;
  C.Tag = nextInstanceTag();
  return C;
}

StatusOr<ServiceClient> ServiceClient::connectWithRetry(
    const std::string &Endpoint, const RetryPolicy &Policy) {
  ignoreSigpipe();
  // The client doesn't exist yet, so draw a tag up front just for the
  // connect loop's jitter; connect() assigns the client its own.
  const uint64_t JKey = clientJitterKey(nextInstanceTag(), Endpoint);
  Status Last = Status::ok();
  for (unsigned Attempt = 0; Attempt <= Policy.MaxRetries; ++Attempt) {
    if (Attempt) {
      unsigned Delay = supervisedBackoffMs(Policy, JKey, Attempt);
      StatClientBackoffMs.add(Delay);
      std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
      StatClientReconnects.add();
    }
    StatusOr<ServiceClient> C = connect(Endpoint);
    if (C.isOk()) {
      C->Policy = Policy;
      if (Policy.OpTimeoutMs)
        (void)C->Sock.setOpTimeoutMs(Policy.OpTimeoutMs);
      return C;
    }
    Last = C.status();
  }
  StatClientGiveUps.add();
  return Last;
}

Status ServiceClient::reconnect() {
  Sock.close();
  StatusOr<Socket> S = Socket::connectEndpoint(Endpoint);
  if (!S.isOk())
    return S.status();
  Sock = std::move(*S);
  if (Policy.OpTimeoutMs)
    (void)Sock.setOpTimeoutMs(Policy.OpTimeoutMs);
  StatClientReconnects.add();
  return Status::ok();
}

Status ServiceClient::send(const ServiceRequest &R) {
  if (R.TraceId.empty())
    return Sock.sendFrame(writeRequest(R, makeTraceId()));
  return Sock.sendFrame(writeRequest(R));
}

Status ServiceClient::recv(ServiceResponse &Out, bool &Closed) {
  std::string Frame;
  Socket::FrameEvent Ev = Socket::FrameEvent::Frame;
  Status St = Sock.recvFrame(Frame, Ev);
  Closed = Ev == Socket::FrameEvent::PeerClosed;
  if (!St.isOk() || Closed)
    return St;
  return parseResponse(Frame, Out);
}

Status ServiceClient::call(const ServiceRequest &R, ServiceResponse &Out) {
  if (Status St = send(R); !St.isOk())
    return St;
  bool Closed = false;
  if (Status St = recv(Out, Closed); !St.isOk())
    return St;
  if (Closed)
    return Status::error("service", "server closed the connection");
  return Status::ok();
}

ServiceClient::Attempt ServiceClient::tryOnce(const ServiceRequest &R,
                                              std::string_view Tid,
                                              ServiceResponse &Out,
                                              Status &Err) {
  if (!Sock.valid()) {
    Err = reconnect();
    if (!Err.isOk())
      return Attempt::RetryConnect; // nothing reached the server
  }

  if (Status St = Sock.sendFrame(writeRequest(R, Tid)); !St.isOk()) {
    Err = St;
    int E = Sock.lastErrno();
    Sock.close();
    // EPIPE: the peer had already closed before our frame went out. The
    // server flushes every response before closing a connection it read
    // from, so a frame that died on send was never read — safe to retry.
    // ECONNRESET and anything else is indeterminate: the frame may have
    // landed before the connection blew up.
    return E == EPIPE ? Attempt::RetrySend : Attempt::Fatal;
  }

  bool Closed = false;
  if (Status St = recv(Out, Closed); !St.isOk()) {
    Err = St;
    Sock.close();
    return Attempt::Fatal; // mid-frame loss or timeout: compile may have run
  }
  if (Closed) {
    // Clean FIN before any response byte: a draining server that never
    // admitted the request (responses for admitted work are flushed
    // before the close).
    Err = Status::error("service", "server closed before responding");
    Sock.close();
    return Attempt::RetrySend;
  }
  if (Out.Status == ServiceResponse::StatusKind::Shed) {
    Err = Status::error("service", "request shed: " + Out.Error);
    return Attempt::RetryShed; // explicitly refused, provably not started
  }
  Err = Status::ok();
  return Attempt::Done;
}

Status ServiceClient::callSupervised(const ServiceRequest &R,
                                     ServiceResponse &Out) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Start = Clock::now();
  // One trace id for the whole supervised call, retries included, so
  // every server-side record of this request correlates.
  const std::string Tid = R.TraceId.empty() ? makeTraceId() : R.TraceId;
  auto RecordLatency = [&] {
    HistClientE2EUs.record(uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              Start)
            .count()));
  };
  auto DeadlineLeft = [&]() -> bool {
    if (!R.DeadlineMs)
      return true;
    auto Spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                     Clock::now() - Start)
                     .count();
    return Spent < long(R.DeadlineMs);
  };

  // One jitter key per supervised call: instance tag separates clients in
  // this process, the trace id separates calls on this client.
  const uint64_t JKey = clientJitterKey(Tag, Tid);

  Status Err = Status::ok();
  for (unsigned Try = 0; Try <= Policy.MaxRetries; ++Try) {
    if (Try) {
      unsigned Delay = supervisedBackoffMs(Policy, JKey, Try);
      StatClientBackoffMs.add(Delay);
      std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
      if (!DeadlineLeft())
        break;
      StatClientRetries.add();
    }
    Attempt A = tryOnce(R, Tid, Out, Err);
    switch (A) {
    case Attempt::Done:
      RecordLatency();
      return Status::ok();
    case Attempt::Fatal:
      RecordLatency();
      return Err; // at-most-once: never replay an indeterminate request
    case Attempt::RetryShed:
      StatClientShedRetries.add();
      [[fallthrough]];
    case Attempt::RetryConnect:
    case Attempt::RetrySend:
      if (!DeadlineLeft()) {
        StatClientGiveUps.add();
        Status Out2 = Status::error(
            "service", "deadline expired while retrying: " + Err.message());
        return Out2;
      }
      break; // loop for another attempt
    }
  }
  StatClientGiveUps.add();
  Status Final = Status::error(
      "service", "retries exhausted (" + std::to_string(Policy.MaxRetries + 1) +
                     " attempts): " + Err.message());
  return Final;
}
