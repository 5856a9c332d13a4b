//===- service/Protocol.h - Compile-service wire protocol -------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/response vocabulary of the persistent compile service.
/// Messages are JSON documents (schemas "ursa.service_request.v1" and
/// "ursa.service_response.v1") carried in length-prefixed frames
/// (support/Socket.h). This header is transport-agnostic: parsing and
/// serialization only, shared by the server, the batch client, and the
/// tests. Requests are untrusted input — parsing goes through
/// obs::parseJsonLimited, every malformed field is a clean Status, and the
/// machine shape, beam width and thread count are checked against caps
/// before any compile sees them.
///
/// docs/SERVICE.md documents the schemas field by field.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_SERVICE_PROTOCOL_H
#define URSA_SERVICE_PROTOCOL_H

#include "machine/MachineModel.h"
#include "obs/Json.h"
#include "support/Status.h"

#include <string>

namespace ursa::service {

/// The machine a request targets, kept in spec form so the server can key
/// its model/cache tables on it. Mirrors the `ursa_cc` machine flags.
struct MachineSpec {
  bool Classed = false;
  unsigned Fus = 4, Regs = 8;                            ///< homogeneous
  unsigned IntFus = 2, FltFus = 1, MemFus = 1, Gprs = 8, Fprs = 4;
  unsigned LatInt = 1, LatFlt = 1, LatMem = 1;
  bool Pipelined = false;

  /// MachineModel's shape check on these counts; build() requires ok.
  Status check() const;

  /// Builds the model this spec describes.
  MachineModel build() const;

  /// Canonical key for the server's machine-model and measurement-cache
  /// tables: two requests with equal keys may share cached state.
  std::string key() const;

  /// Inverts key(): reconstructs the spec a key describes. The startup
  /// warm-load path uses this to rebuild machine models from persisted
  /// cache-image headers before any request names them. Returns false on
  /// anything key() could not have produced.
  static bool fromKey(const std::string &Key, MachineSpec &Out);
};

/// One service request.
struct ServiceRequest {
  enum class OpKind {
    Compile,
    Report,
    Shutdown,
    Ping,
    Stats, ///< live ursa.service_stats.v1 (or Prometheus exposition)
    Health ///< cheap liveness/pressure probe (ursa.service_health.v1)
  } Op = OpKind::Compile;
  /// Client-chosen id echoed in the response (responses may arrive out of
  /// order when requests are pipelined).
  std::string Id;
  /// Request-scoped trace id, stamped by ServiceClient when the caller
  /// left it empty and echoed in the response. The server propagates it
  /// through queueing and the worker pool so every span and flight-
  /// recorder record of this request carries it.
  std::string TraceId;
  /// Trace source text (the `ursa_cc` straight-line dialect).
  std::string Source;
  MachineSpec Machine;

  // Stats-op options.
  std::string StatsFormat = "json"; ///< json | prometheus
  bool IncludeFlight = false;       ///< embed the flight-recorder ring

  // Options, mapped onto URSAOptions by the service. 0 = service default.
  std::string Order = "regs"; ///< regs | fus | integrated
  std::string Verify;         ///< "" = URSA_VERIFY default; off|basic|full
  bool GuaranteedFit = false;
  unsigned MaxTotalRounds = 0;
  /// Proposal-evaluation threads inside one compile; capped at 64 by the
  /// parser, like Beam.
  unsigned Threads = 0;
  int Incremental = -1; ///< -1 = environment default
  /// Beam width for the driver's transformation search; 0 (and an absent
  /// wire field) keeps the server default (greedy / URSA_BEAM), so old
  /// clients are unaffected. Capped at 64 by the parser — wider beams are
  /// a resource-exhaustion vector, not a quality win.
  unsigned Beam = 0;
  /// Race phase orderings and tie-break perturbations, keeping the best
  /// allocation (URSAOptions::Portfolio). Absent on the wire = false.
  bool Portfolio = false;
  /// Admission deadline: total milliseconds the request may spend queued
  /// plus compiling before the server gives up on it. 0 = none. The
  /// compile runs with URSAOptions::Deadline at the enqueue time plus
  /// this, so it is cancelled, never shortened: the answer is the same
  /// Ok as without a deadline, or Deadline.
  unsigned DeadlineMs = 0;
  /// Test hook (honored only when the server enables test hooks): stall
  /// every allocation round by this many milliseconds.
  unsigned StallMs = 0;
};

/// One service response.
struct ServiceResponse {
  enum class StatusKind {
    Ok,       ///< compiled; Text holds the ursa_cc-identical output
    Error,    ///< bad request or failed compile; Error explains
    Shed,     ///< load-shed: queue full or server shutting down
    Deadline, ///< the request's deadline expired before compilation
    Report,   ///< Text holds a ursa.service_report.v1 document
    Bye,      ///< shutdown acknowledged
    Stats     ///< Text holds a stats document (JSON or Prometheus text)
  } Status = StatusKind::Error;
  std::string Id;
  /// Echo of the request's trace id (possibly client-stamped).
  std::string TraceId;
  std::string Error;
  /// For Ok: exactly what `ursa_cc <file> --machine ...` would print
  /// (stats comment + VLIW assembly). For Report: the report JSON.
  std::string Text;

  unsigned Cycles = 0;
  unsigned SpillOps = 0;
  bool WithinLimits = false;
  bool BudgetExhausted = false;
  double QueueMs = 0;   ///< time spent queued before a worker picked it up
  double CompileMs = 0; ///< time inside the compiler
};

/// Serializes \p R as a ursa.service_request.v1 document. A non-empty
/// \p TraceId overrides R.TraceId on the wire (how the client stamps an
/// id without copying the request).
std::string writeRequest(const ServiceRequest &R,
                         std::string_view TraceId = {});

/// Parses an untrusted request document under \p Limits. Fields the
/// schema does not name are skipped, retired ones included (see
/// docs/SERVICE.md section 3).
Status parseRequest(std::string_view Doc, ServiceRequest &Out,
                    const obs::JsonParseLimits &Limits = {});

/// Serializes \p R as a ursa.service_response.v1 document.
std::string writeResponse(const ServiceResponse &R);

/// Parses a response document (trusted: our own server produced it). A
/// status name this version does not know reads as StatusKind::Error.
Status parseResponse(std::string_view Doc, ServiceResponse &Out);

/// The wire name of a response status ("ok", "error", "shed", ...).
const char *statusName(ServiceResponse::StatusKind K);

} // namespace ursa::service

#endif // URSA_SERVICE_PROTOCOL_H
