//===- service/Client.h - Compile-service client ----------------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the wire protocol: connect, send requests, read
/// responses. Requests may be pipelined — send any number before reading
/// — and responses matched back by id; `ursa_batch` keeps a whole
/// worker-pool's worth of compiles in flight this way. Shared by
/// ursa_batch and the service tests.
///
/// Supervision: callSupervised() wraps one request in reconnect-with-
/// backoff under a strict **at-most-once** rule. Only failures that prove
/// the server never started the compile are retried:
///
///   retryable      connect refused/failed; a `shed` response; a clean
///                  close (FIN) before any response byte; EPIPE on send
///                  (a draining server flushes responses before closing,
///                  so an unsent frame was never read);
///   non-retryable  ECONNRESET, torn or mid-frame failures, op timeouts,
///                  and any response other than `shed` — the server may
///                  have started (or finished) the compile, so replaying
///                  could run it twice. These surface as a Status.
///
/// Backoff is exponential with deterministic jitter (support/RNG.h). The
/// jitter is keyed on the policy seed, a process-unique per-client
/// instance tag, and the supervised call's trace id — so two clients in
/// one process (or two calls on one client) never share a backoff
/// schedule, which would synchronize their reconnect storms against a
/// restarting server. Every attempt honors the request's DeadlineMs
/// across the whole supervised call, not per try.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_SERVICE_CLIENT_H
#define URSA_SERVICE_CLIENT_H

#include "obs/Histogram.h"
#include "service/Protocol.h"
#include "support/RNG.h"
#include "support/Socket.h"

namespace ursa::service {

/// Client-observed end-to-end latency in microseconds
/// ("ursa.client.e2e_us"): recorded by callSupervised around the whole
/// supervised call (backoff included) and by ursa_batch's pipelined
/// loop. `ursa_batch --client-stats` prints its percentiles.
obs::Histogram &clientLatencyHistogram();

/// A process-unique trace id ("t-XXXXXXXX-NNNNNN"). ServiceClient stamps
/// one into every request whose caller left TraceId empty, so each wire
/// request is traceable end to end without the caller doing anything.
std::string makeTraceId();

/// Reconnect/retry tuning for callSupervised.
struct RetryPolicy {
  /// Extra attempts after the first (0 = never retry; the supervised
  /// call then behaves like plain call() plus failure classification).
  unsigned MaxRetries = 0;
  /// First backoff delay; doubles per retry up to BackoffMaxMs.
  unsigned BackoffBaseMs = 10;
  unsigned BackoffMaxMs = 1000;
  /// Jitter seed, mixed with the client's process-unique instance tag and
  /// the supervised call's trace id (clientJitterKey) — equal seeds on
  /// different clients still draw different backoff schedules.
  uint64_t Seed = 1;
  /// Per-operation socket deadline applied to every connection
  /// (Socket::setOpTimeoutMs); 0 = unbounded.
  unsigned OpTimeoutMs = 0;
};

/// Mixes a client's process-unique instance tag with a request's trace id
/// into the jitter key supervisedBackoffMs draws from. Distinct tags (two
/// clients in one process) or distinct trace ids (two supervised calls)
/// yield distinct keys, so backoff schedules never collide.
uint64_t clientJitterKey(uint64_t InstanceTag, std::string_view TraceId);

/// The deterministic backoff delay before attempt \p Try (1-based; Try 0
/// is the initial attempt and never sleeps): exponential cap
/// min(BackoffMaxMs, BackoffBaseMs << (Try-1)), jittered uniformly into
/// [Cap/2, Cap] by Policy.Seed ^ JitterKey ^ Try. Stateless and pure, so
/// tests can pin exact schedules.
unsigned supervisedBackoffMs(const RetryPolicy &Policy, uint64_t JitterKey,
                             unsigned Try);

class ServiceClient {
public:
  /// Connects to \p Endpoint ("unix:PATH", bare path, or "tcp:HOST:PORT").
  static StatusOr<ServiceClient> connect(const std::string &Endpoint);

  /// Like connect(), but remembers \p Policy and retries the initial
  /// connection itself with backoff.
  static StatusOr<ServiceClient> connectWithRetry(const std::string &Endpoint,
                                                  const RetryPolicy &Policy);

  /// Sends one request frame.
  Status send(const ServiceRequest &R);

  /// Reads one response frame. A clean server close sets \p Closed and
  /// returns OK.
  Status recv(ServiceResponse &Out, bool &Closed);

  /// send + recv for the simple one-at-a-time case.
  Status call(const ServiceRequest &R, ServiceResponse &Out);

  /// One request under supervision: reconnects and retries per the
  /// policy, but only on failures the at-most-once rule allows (see file
  /// header). A `shed` response is retried with backoff and only
  /// surfaced once retries are exhausted.
  Status callSupervised(const ServiceRequest &R, ServiceResponse &Out);

  /// True while the underlying connection looks usable. After a failed
  /// callSupervised the connection may be closed; the next supervised
  /// call reconnects on its own.
  bool connected() const { return Sock.valid(); }

  const RetryPolicy &policy() const { return Policy; }
  void setPolicy(const RetryPolicy &P) { Policy = P; }

  /// errno of the last failed socket operation (failure classification
  /// for callers doing their own pipelined retries, e.g. ursa_batch).
  int lastErrno() const { return Sock.lastErrno(); }

  /// Process-unique tag assigned at connect(); feeds clientJitterKey so
  /// this client's backoff schedule is its own.
  uint64_t instanceTag() const { return Tag; }

private:
  explicit ServiceClient(Socket S) : Sock(std::move(S)) {}

  /// (Re)establishes Sock to Endpoint, applying OpTimeoutMs.
  Status reconnect();

  /// True when the failed attempt provably never started server-side.
  /// \p Tid is the trace id stamped on the wire — the same one across
  /// every retry of a supervised call, so the server-side records of all
  /// attempts correlate.
  enum class Attempt { Done, RetryConnect, RetrySend, RetryShed, Fatal };
  Attempt tryOnce(const ServiceRequest &R, std::string_view Tid,
                  ServiceResponse &Out, Status &Err);

  Socket Sock;
  std::string Endpoint;
  RetryPolicy Policy;
  uint64_t Tag = 0; ///< process-unique instance tag (jitter de-collision)
};

} // namespace ursa::service

#endif // URSA_SERVICE_CLIENT_H
