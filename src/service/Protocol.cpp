//===- service/Protocol.cpp - Compile-service wire protocol ---------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <cstdio>
#include <functional>

using namespace ursa;
using namespace ursa::service;
using obs::JsonValue;
using obs::JsonWriter;

MachineModel MachineSpec::build() const {
  MachineModel M = Classed
                       ? MachineModel::classed(IntFus, FltFus, MemFus, Gprs,
                                               Fprs)
                       : MachineModel::homogeneous(Fus, Regs);
  if (LatInt != 1 || LatFlt != 1 || LatMem != 1)
    M.withLatencies(LatInt, LatFlt, LatMem);
  if (Pipelined)
    M.withPipelinedFUs();
  return M;
}

std::string MachineSpec::key() const {
  char Buf[128];
  if (Classed)
    std::snprintf(Buf, sizeof(Buf), "c%u,%u,%u,%u,%u/l%u,%u,%u/p%d", IntFus,
                  FltFus, MemFus, Gprs, Fprs, LatInt, LatFlt, LatMem,
                  Pipelined ? 1 : 0);
  else
    std::snprintf(Buf, sizeof(Buf), "h%ux%u/l%u,%u,%u/p%d", Fus, Regs,
                  LatInt, LatFlt, LatMem, Pipelined ? 1 : 0);
  return Buf;
}

bool MachineSpec::fromKey(const std::string &Key, MachineSpec &Out) {
  MachineSpec S;
  int P = 0;
  if (std::sscanf(Key.c_str(), "h%ux%u/l%u,%u,%u/p%d", &S.Fus, &S.Regs,
                  &S.LatInt, &S.LatFlt, &S.LatMem, &P) == 6) {
    S.Classed = false;
  } else if (std::sscanf(Key.c_str(), "c%u,%u,%u,%u,%u/l%u,%u,%u/p%d",
                         &S.IntFus, &S.FltFus, &S.MemFus, &S.Gprs, &S.Fprs,
                         &S.LatInt, &S.LatFlt, &S.LatMem, &P) == 9) {
    S.Classed = true;
  } else {
    return false;
  }
  S.Pipelined = P != 0;
  // The round trip must be exact — trailing junk or out-of-range digits
  // would otherwise fabricate a machine key() never produced.
  if (S.key() != Key)
    return false;
  Out = S;
  return true;
}

const char *service::statusName(ServiceResponse::StatusKind K) {
  switch (K) {
  case ServiceResponse::StatusKind::Ok:
    return "ok";
  case ServiceResponse::StatusKind::Error:
    return "error";
  case ServiceResponse::StatusKind::Shed:
    return "shed";
  case ServiceResponse::StatusKind::Deadline:
    return "deadline";
  case ServiceResponse::StatusKind::Report:
    return "report";
  case ServiceResponse::StatusKind::Bye:
    return "bye";
  case ServiceResponse::StatusKind::Stats:
    return "stats";
  }
  return "error";
}

static const char *opName(ServiceRequest::OpKind Op) {
  switch (Op) {
  case ServiceRequest::OpKind::Compile:
    return "compile";
  case ServiceRequest::OpKind::Report:
    return "report";
  case ServiceRequest::OpKind::Shutdown:
    return "shutdown";
  case ServiceRequest::OpKind::Ping:
    return "ping";
  case ServiceRequest::OpKind::Stats:
    return "stats";
  case ServiceRequest::OpKind::Health:
    return "health";
  }
  return "compile";
}

std::string service::writeRequest(const ServiceRequest &R,
                                  std::string_view TraceId) {
  JsonWriter W;
  W.beginObject();
  W.kv("schema", "ursa.service_request.v1");
  W.kv("op", opName(R.Op));
  W.kv("id", R.Id);
  if (!TraceId.empty())
    W.kv("trace_id", TraceId);
  else if (!R.TraceId.empty())
    W.kv("trace_id", R.TraceId);
  if (R.Op == ServiceRequest::OpKind::Stats) {
    if (R.StatsFormat != "json")
      W.kv("format", R.StatsFormat);
    if (R.IncludeFlight)
      W.kv("flight", true);
  }
  if (R.Op == ServiceRequest::OpKind::Compile) {
    W.kv("source", R.Source);
    W.key("machine").beginObject();
    if (R.Machine.Classed) {
      W.kv("int_fus", R.Machine.IntFus);
      W.kv("float_fus", R.Machine.FltFus);
      W.kv("mem_fus", R.Machine.MemFus);
      W.kv("gprs", R.Machine.Gprs);
      W.kv("fprs", R.Machine.Fprs);
    } else {
      W.kv("fus", R.Machine.Fus);
      W.kv("regs", R.Machine.Regs);
    }
    if (R.Machine.LatInt != 1 || R.Machine.LatFlt != 1 ||
        R.Machine.LatMem != 1) {
      W.key("latencies").beginArray();
      W.value(R.Machine.LatInt).value(R.Machine.LatFlt).value(
          R.Machine.LatMem);
      W.endArray();
    }
    if (R.Machine.Pipelined)
      W.kv("pipelined", true);
    W.endObject();
    W.key("options").beginObject();
    W.kv("order", R.Order);
    if (!R.Verify.empty())
      W.kv("verify", R.Verify);
    if (R.GuaranteedFit)
      W.kv("guaranteed_fit", true);
    if (R.TimeBudgetMs)
      W.kv("time_budget_ms", R.TimeBudgetMs);
    if (R.MaxTotalRounds)
      W.kv("max_total_rounds", R.MaxTotalRounds);
    if (R.Threads)
      W.kv("threads", R.Threads);
    if (R.Incremental >= 0)
      W.kv("incremental", R.Incremental != 0);
    if (R.Beam)
      W.kv("beam", R.Beam);
    if (R.Portfolio)
      W.kv("portfolio", true);
    if (R.DeadlineMs)
      W.kv("deadline_ms", R.DeadlineMs);
    if (R.StallMs)
      W.kv("stall_ms", R.StallMs);
    W.endObject();
  }
  W.endObject();
  return W.str();
}

/// Reads an optional non-negative integer member, rejecting junk.
static Status readUnsigned(const JsonValue &Obj, const char *Key,
                           unsigned &Out) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return Status::ok();
  if (!V->isNumber() || V->Num < 0 || V->Num > 4e9)
    return Status::error("service", std::string("field '") + Key +
                                        "' must be a non-negative integer");
  Out = unsigned(V->Num);
  return Status::ok();
}

static Status readString(const JsonValue &Obj, const char *Key,
                         std::string &Out) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return Status::ok();
  if (!V->isString())
    return Status::error("service",
                         std::string("field '") + Key + "' must be a string");
  Out = V->Str;
  return Status::ok();
}

static Status readBool(const JsonValue &Obj, const char *Key, bool &Out) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return Status::ok();
  if (V->K != JsonValue::Kind::Bool)
    return Status::error("service",
                         std::string("field '") + Key + "' must be a bool");
  Out = V->B;
  return Status::ok();
}

Status service::parseRequest(std::string_view Doc, ServiceRequest &Out,
                             const obs::JsonParseLimits &Limits) {
  JsonValue Root;
  if (Status St = obs::parseJsonLimited(Doc, Root, Limits); !St.isOk())
    return St;
  if (!Root.isObject())
    return Status::error("service", "request must be a JSON object");

  std::string Schema;
  if (Status St = readString(Root, "schema", Schema); !St.isOk())
    return St;
  if (Schema != "ursa.service_request.v1")
    return Status::error("service",
                         "unsupported request schema '" + Schema + "'");

  std::string Op = "compile";
  if (Status St = readString(Root, "op", Op); !St.isOk())
    return St;
  if (Op == "compile")
    Out.Op = ServiceRequest::OpKind::Compile;
  else if (Op == "report")
    Out.Op = ServiceRequest::OpKind::Report;
  else if (Op == "shutdown")
    Out.Op = ServiceRequest::OpKind::Shutdown;
  else if (Op == "ping")
    Out.Op = ServiceRequest::OpKind::Ping;
  else if (Op == "stats")
    Out.Op = ServiceRequest::OpKind::Stats;
  else if (Op == "health")
    Out.Op = ServiceRequest::OpKind::Health;
  else
    return Status::error("service", "unknown op '" + Op + "'");

  if (Status St = readString(Root, "id", Out.Id); !St.isOk())
    return St;
  if (Status St = readString(Root, "trace_id", Out.TraceId); !St.isOk())
    return St;
  if (Out.Op == ServiceRequest::OpKind::Stats) {
    Status St;
    St.merge(readString(Root, "format", Out.StatsFormat));
    St.merge(readBool(Root, "flight", Out.IncludeFlight));
    if (!St.isOk())
      return St;
    if (Out.StatsFormat != "json" && Out.StatsFormat != "prometheus")
      return Status::error("service",
                           "unknown stats format '" + Out.StatsFormat + "'");
    return Status::ok();
  }
  if (Out.Op != ServiceRequest::OpKind::Compile)
    return Status::ok();

  if (Status St = readString(Root, "source", Out.Source); !St.isOk())
    return St;
  if (Out.Source.empty())
    return Status::error("service", "compile request without source");

  if (const JsonValue *M = Root.find("machine")) {
    if (!M->isObject())
      return Status::error("service", "field 'machine' must be an object");
    Out.Machine.Classed = M->find("int_fus") || M->find("gprs");
    Status St;
    St.merge(readUnsigned(*M, "fus", Out.Machine.Fus));
    St.merge(readUnsigned(*M, "regs", Out.Machine.Regs));
    St.merge(readUnsigned(*M, "int_fus", Out.Machine.IntFus));
    St.merge(readUnsigned(*M, "float_fus", Out.Machine.FltFus));
    St.merge(readUnsigned(*M, "mem_fus", Out.Machine.MemFus));
    St.merge(readUnsigned(*M, "gprs", Out.Machine.Gprs));
    St.merge(readUnsigned(*M, "fprs", Out.Machine.Fprs));
    St.merge(readBool(*M, "pipelined", Out.Machine.Pipelined));
    if (!St.isOk())
      return St;
    if (const JsonValue *L = M->find("latencies")) {
      if (!L->isArray() || L->Arr.size() != 3)
        return Status::error("service",
                             "field 'latencies' must be [int,float,mem]");
      for (const JsonValue &E : L->Arr)
        if (!E.isNumber() || E.Num < 1 || E.Num > 1000)
          return Status::error("service", "latency out of range");
      Out.Machine.LatInt = unsigned(L->Arr[0].Num);
      Out.Machine.LatFlt = unsigned(L->Arr[1].Num);
      Out.Machine.LatMem = unsigned(L->Arr[2].Num);
    }
    // A machine with zero units or registers can never fit anything.
    unsigned FuTotal = Out.Machine.Classed
                           ? Out.Machine.IntFus + Out.Machine.FltFus +
                                 Out.Machine.MemFus
                           : Out.Machine.Fus;
    unsigned RegTotal = Out.Machine.Classed
                            ? Out.Machine.Gprs + Out.Machine.Fprs
                            : Out.Machine.Regs;
    if (FuTotal == 0 || RegTotal == 0)
      return Status::error("service", "machine has no FUs or no registers");
  }

  if (const JsonValue *O = Root.find("options")) {
    if (!O->isObject())
      return Status::error("service", "field 'options' must be an object");
    Status St;
    St.merge(readString(*O, "order", Out.Order));
    St.merge(readString(*O, "verify", Out.Verify));
    St.merge(readBool(*O, "guaranteed_fit", Out.GuaranteedFit));
    St.merge(readUnsigned(*O, "time_budget_ms", Out.TimeBudgetMs));
    St.merge(readUnsigned(*O, "max_total_rounds", Out.MaxTotalRounds));
    St.merge(readUnsigned(*O, "threads", Out.Threads));
    St.merge(readUnsigned(*O, "beam", Out.Beam));
    St.merge(readBool(*O, "portfolio", Out.Portfolio));
    St.merge(readUnsigned(*O, "deadline_ms", Out.DeadlineMs));
    St.merge(readUnsigned(*O, "stall_ms", Out.StallMs));
    if (!St.isOk())
      return St;
    if (Out.Beam > 64)
      return Status::error("service", "beam width out of range (max 64)");
    bool Inc = false;
    if (O->find("incremental")) {
      if (Status S2 = readBool(*O, "incremental", Inc); !S2.isOk())
        return S2;
      Out.Incremental = Inc ? 1 : 0;
    }
    if (Out.Order != "regs" && Out.Order != "fus" && Out.Order != "integrated")
      return Status::error("service", "unknown order '" + Out.Order + "'");
    if (!Out.Verify.empty() && Out.Verify != "off" && Out.Verify != "none" &&
        Out.Verify != "basic" && Out.Verify != "full")
      return Status::error("service", "unknown verify '" + Out.Verify + "'");
  }
  return Status::ok();
}

std::string service::writeResponse(const ServiceResponse &R) {
  JsonWriter W;
  W.beginObject();
  W.kv("schema", "ursa.service_response.v1");
  W.kv("id", R.Id);
  if (!R.TraceId.empty())
    W.kv("trace_id", R.TraceId);
  W.kv("status", statusName(R.Status));
  if (!R.Error.empty())
    W.kv("error", R.Error);
  if (R.Status == ServiceResponse::StatusKind::Ok) {
    W.kv("text", R.Text);
    W.kv("cycles", R.Cycles);
    W.kv("spill_ops", R.SpillOps);
    W.kv("within_limits", R.WithinLimits);
    W.kv("budget_exhausted", R.BudgetExhausted);
  } else if (R.Status == ServiceResponse::StatusKind::Report) {
    W.key("report").raw(R.Text); // a complete JSON document
  } else if (R.Status == ServiceResponse::StatusKind::Stats) {
    // Stats documents may be Prometheus text, so they travel as a JSON
    // string either way.
    W.kv("text", R.Text);
  }
  W.kv("queue_ms", R.QueueMs);
  W.kv("compile_ms", R.CompileMs);
  W.endObject();
  return W.str();
}

Status service::parseResponse(std::string_view Doc, ServiceResponse &Out) {
  JsonValue Root;
  std::string Err;
  if (!obs::parseJson(Doc, Root, Err))
    return Status::error("service", "bad response: " + Err);
  if (!Root.isObject())
    return Status::error("service", "response must be a JSON object");
  std::string StatusStr;
  Status St;
  St.merge(readString(Root, "id", Out.Id));
  St.merge(readString(Root, "trace_id", Out.TraceId));
  St.merge(readString(Root, "status", StatusStr));
  St.merge(readString(Root, "error", Out.Error));
  St.merge(readString(Root, "text", Out.Text));
  if (!St.isOk())
    return St;
  if (StatusStr == "ok")
    Out.Status = ServiceResponse::StatusKind::Ok;
  else if (StatusStr == "shed")
    Out.Status = ServiceResponse::StatusKind::Shed;
  else if (StatusStr == "deadline")
    Out.Status = ServiceResponse::StatusKind::Deadline;
  else if (StatusStr == "report")
    Out.Status = ServiceResponse::StatusKind::Report;
  else if (StatusStr == "bye")
    Out.Status = ServiceResponse::StatusKind::Bye;
  else if (StatusStr == "stats")
    Out.Status = ServiceResponse::StatusKind::Stats;
  else
    Out.Status = ServiceResponse::StatusKind::Error;
  unsigned U = 0;
  if (readUnsigned(Root, "cycles", U).isOk())
    Out.Cycles = U;
  U = 0;
  if (readUnsigned(Root, "spill_ops", U).isOk())
    Out.SpillOps = U;
  readBool(Root, "within_limits", Out.WithinLimits);
  readBool(Root, "budget_exhausted", Out.BudgetExhausted);
  if (const JsonValue *Q = Root.find("queue_ms"); Q && Q->isNumber())
    Out.QueueMs = Q->Num;
  if (const JsonValue *C = Root.find("compile_ms"); C && C->isNumber())
    Out.CompileMs = C->Num;
  if (Out.Status == ServiceResponse::StatusKind::Report) {
    // The raw sub-document is easier to re-serialize than to re-walk.
    if (const JsonValue *Rep = Root.find("report"); Rep && Rep->isObject()) {
      // Reconstruct canonical JSON for the caller to print or parse.
      std::function<void(JsonWriter &, const JsonValue &)> Emit =
          [&](JsonWriter &W, const JsonValue &V) {
            switch (V.K) {
            case JsonValue::Kind::Null:
              W.null();
              break;
            case JsonValue::Kind::Bool:
              W.value(V.B);
              break;
            case JsonValue::Kind::Number:
              W.value(V.Num);
              break;
            case JsonValue::Kind::String:
              W.value(V.Str);
              break;
            case JsonValue::Kind::Array:
              W.beginArray();
              for (const JsonValue &E : V.Arr)
                Emit(W, E);
              W.endArray();
              break;
            case JsonValue::Kind::Object:
              W.beginObject();
              for (const auto &[K, E] : V.Obj) {
                W.key(K);
                Emit(W, E);
              }
              W.endObject();
              break;
            }
          };
      JsonWriter W;
      Emit(W, *Rep);
      Out.Text = W.str();
    }
  }
  return Status::ok();
}
