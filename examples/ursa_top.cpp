//===- examples/ursa_top.cpp - Live compile-service monitor ---------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A `top`-style live view of a running ursa_served:
//
//   ursa_top --connect ENDPOINT [options]
//
//   --connect ENDPOINT   "unix:PATH", a bare socket path, or
//                        "tcp:HOST:PORT" (URSA_SERVICE_SOCKET honored)
//   --interval MS        polling period (default 1000)
//   --count N            exit after N polls (default: run until ^C or the
//                        server goes away)
//   --once               one poll, no screen clearing (same as --count 1)
//   --flight             also show the slowest retained requests from the
//                        flight recorder, stage by stage
//
// Each poll sends one `stats` request (docs/SERVICE.md) and renders the
// ursa.service_stats.v1 document: uptime, degradation tier, queue
// depth/capacity, in-flight compiles, request rates since the previous
// poll, and the latency histograms' p50/p90/p99/max. With --flight the
// span timelines of the slowest requests are reconstructed beneath.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "service/Client.h"
#include "support/Table.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace ursa;
using namespace ursa::service;

namespace {

double num(const obs::JsonValue *V) { return V && V->isNumber() ? V->Num : 0; }

const obs::JsonValue *at(const obs::JsonValue &Doc, const char *A,
                         const char *B = nullptr) {
  const obs::JsonValue *V = Doc.find(A);
  return V && B ? V->find(B) : V;
}

std::string fmtUs(double Us) {
  char Buf[32];
  if (Us >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.2fs", Us / 1e6);
  else if (Us >= 1e3)
    std::snprintf(Buf, sizeof(Buf), "%.1fms", Us / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.0fus", Us);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Endpoint;
  if (const char *S = std::getenv("URSA_SERVICE_SOCKET"))
    Endpoint = S;
  unsigned IntervalMs = 1000;
  long Count = -1;
  bool Once = false, ShowFlight = false;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *S = nullptr;
    if (A == "--connect" && (S = Next()))
      Endpoint = S;
    else if (A == "--interval" && (S = Next()) && std::atoi(S) > 0)
      IntervalMs = unsigned(std::atoi(S));
    else if (A == "--count" && (S = Next()))
      Count = std::atol(S);
    else if (A == "--once")
      Once = true;
    else if (A == "--flight")
      ShowFlight = true;
    else {
      std::fprintf(stderr, "unknown or incomplete option '%s'\n", A.c_str());
      return 1;
    }
  }
  if (Once)
    Count = 1;
  if (Endpoint.empty()) {
    std::fprintf(stderr, "usage: ursa_top --connect ENDPOINT [options]\n"
                         "       (see the header of examples/ursa_top.cpp)\n");
    return 1;
  }

  StatusOr<ServiceClient> COr = ServiceClient::connect(Endpoint);
  if (!COr.isOk()) {
    std::fprintf(stderr, "error: %s\n", COr.status().str().c_str());
    return 1;
  }
  ServiceClient Client = std::move(*COr);

  double PrevDone = -1; // completed+errors+deadline at the previous poll
  auto PrevAt = std::chrono::steady_clock::now();
  for (long Poll = 0; Count < 0 || Poll < Count; ++Poll) {
    if (Poll)
      std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));

    ServiceRequest R;
    R.Op = ServiceRequest::OpKind::Stats;
    R.Id = "top-" + std::to_string(Poll);
    R.IncludeFlight = ShowFlight;
    ServiceResponse Resp;
    if (Status St = Client.call(R, Resp); !St.isOk()) {
      std::fprintf(stderr, "ursa_top: server went away: %s\n",
                   St.str().c_str());
      return Poll ? 0 : 1;
    }

    obs::JsonValue Doc;
    std::string Err;
    if (!obs::parseJson(Resp.Text, Doc, Err)) {
      std::fprintf(stderr, "ursa_top: bad stats document: %s\n", Err.c_str());
      return 1;
    }

    double Done = num(at(Doc, "requests", "completed")) +
                  num(at(Doc, "requests", "errors")) +
                  num(at(Doc, "requests", "deadline_expired"));
    auto Now = std::chrono::steady_clock::now();
    double Secs = std::chrono::duration<double>(Now - PrevAt).count();
    double Rate = PrevDone >= 0 && Secs > 0 ? (Done - PrevDone) / Secs : 0;
    PrevDone = Done;
    PrevAt = Now;

    if (!Once)
      std::fputs("\x1b[2J\x1b[H", stdout); // clear screen, home cursor
    std::printf("ursa_top — %s   uptime %.0fs   poll %ldms\n\n",
                Endpoint.c_str(), num(Doc.find("uptime_s")),
                long(IntervalMs));
    std::printf("tier %u  load %.2f  queue %u/%u (peak %u)  in-flight %u  "
                "%.1f req/s\n",
                unsigned(num(at(Doc, "degradation", "tier"))),
                num(at(Doc, "degradation", "load_ewma")),
                unsigned(num(at(Doc, "queue", "depth"))),
                unsigned(num(at(Doc, "queue", "capacity"))),
                unsigned(num(at(Doc, "queue", "depth_peak"))),
                unsigned(num(at(Doc, "requests", "in_flight"))), Rate);
    std::printf("requests: %u received, %u ok, %u errors, %u shed, "
                "%u deadline\n\n",
                unsigned(num(at(Doc, "requests", "received"))),
                unsigned(num(at(Doc, "requests", "completed"))),
                unsigned(num(at(Doc, "requests", "errors"))),
                unsigned(num(at(Doc, "requests", "shed"))),
                unsigned(num(at(Doc, "requests", "deadline_expired"))));

    if (const obs::JsonValue *Hs = Doc.find("histograms");
        Hs && Hs->isArray() && !Hs->Arr.empty()) {
      Table Tbl({"histogram", "count", "p50", "p90", "p99", "max"});
      for (const obs::JsonValue &H : Hs->Arr) {
        const obs::JsonValue *Name = H.find("name");
        Tbl.addRow({Name && Name->isString() ? Name->Str : "?",
                    std::to_string(uint64_t(num(H.find("count")))),
                    fmtUs(num(H.find("p50_us"))), fmtUs(num(H.find("p90_us"))),
                    fmtUs(num(H.find("p99_us"))),
                    fmtUs(num(H.find("max_us")))});
      }
      Tbl.print(std::cout);
      std::cout.flush();
    }

    if (ShowFlight) {
      const obs::JsonValue *Recs = at(Doc, "flight", "records");
      if (Recs && Recs->isArray()) {
        // The slowest retained-timeline requests, slowest first.
        std::vector<const obs::JsonValue *> Slow;
        for (const obs::JsonValue &Rec : Recs->Arr)
          if (const obs::JsonValue *Sp = Rec.find("spans");
              Sp && Sp->isArray() && !Sp->Arr.empty())
            Slow.push_back(&Rec);
        std::sort(Slow.begin(), Slow.end(),
                  [](const obs::JsonValue *A, const obs::JsonValue *B) {
                    return num(A->find("total_ms")) > num(B->find("total_ms"));
                  });
        if (Slow.size() > 5)
          Slow.resize(5);
        if (!Slow.empty())
          std::printf("\nslowest retained requests:\n");
        for (const obs::JsonValue *Rec : Slow) {
          const obs::JsonValue *Id = Rec->find("trace_id");
          std::printf("  %s  %s  total %.2fms (queue %.2fms)  tier %u\n",
                      Id && Id->isString() ? Id->Str.c_str() : "?",
                      Rec->find("status") && Rec->find("status")->isString()
                          ? Rec->find("status")->Str.c_str()
                          : "?",
                      num(Rec->find("total_ms")), num(Rec->find("queue_ms")),
                      unsigned(num(Rec->find("degrade_tier"))));
          for (const obs::JsonValue &Sp : Rec->find("spans")->Arr) {
            const obs::JsonValue *Name = Sp.find("name");
            std::printf("    %-24s %s\n",
                        Name && Name->isString() ? Name->Str.c_str() : "?",
                        fmtUs(num(Sp.find("dur_us"))).c_str());
          }
        }
      }
    }
    std::fflush(stdout);
  }
  return 0;
}
