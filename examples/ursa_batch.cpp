//===- examples/ursa_batch.cpp - Batch client for ursa_served -------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Compiles a batch of trace files through a running ursa_served:
//
//   ursa_batch --connect ENDPOINT [files...] [options]
//
//   --connect ENDPOINT    "unix:PATH", a bare socket path, or
//                         "tcp:HOST:PORT" (--socket is an alias)
//   --machine FxR         homogeneous machine (as ursa_cc)
//   --classed i,f,m,g,p   classed machine
//   --latencies i,f,m     operation latencies
//   --pipelined           initiation-interval-1 FUs
//   --order NAME          regs | fus | integrated
//   --verify LEVEL        off | basic | full
//   --guaranteed-fit      force residual excess to fit
//   --beam K              driver beam width (1 = greedy; see ursa_cc)
//   --portfolio           race phase orderings, keep the best allocation
//   --deadline MS         per-request deadline (queue + compile); a
//                         request past it is answered `deadline`, never
//                         with a different program
//   --window N            max requests in flight (default 16)
//   --retries N           transport-failure budget: how many times the
//                         batch may reconnect and resume (default 0)
//   --report              fetch and print the server report instead
//   --stats               fetch and print the live ursa.service_stats.v1
//                         document (after compiling any files given)
//   --prometheus          print the stats as Prometheus text exposition
//   --flight              include the flight-recorder ring in the stats
//   --health              fetch and print ursa.service_health.v1
//   --client-stats        on exit, print the client-side counters
//                         (ursa.client.*) and the client-observed latency
//                         histogram percentiles to stderr
//   --shutdown            ask the server to shut down (drains first)
//
// Requests are pipelined up to the window and responses matched back by
// id; output is printed in input order and is bit-identical to running
// `ursa_cc FILE ...` per file, at any worker count and queue pressure.
//
// Fault tolerance: a shed halves the number of requests the batch keeps
// in flight (each completion grows it back by one, up to the window), and
// the shed file is resent after a backoff that starts at 5 ms and doubles
// with each of its sheds up to 200 ms; a file shed 32 times fails with the
// label "shed". On a transport failure the batch re-queues every file
// the server provably never started — unsent files always; in-flight
// files only when the connection closed cleanly before their responses
// (a draining server flushes responses for admitted work first) —
// reconnects with backoff while the --retries budget lasts, and resumes.
// Files lost to an indeterminate failure (reset mid-frame) are never
// replayed (at-most-once); they are reported in a per-file failure table
// on stderr and the exit status is nonzero.
//
//===----------------------------------------------------------------------===//

#include "obs/Stats.h"
#include "service/Client.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

using namespace ursa;
using namespace ursa::service;

namespace {

bool parseUints(const char *S, std::vector<unsigned> &Out, char Sep) {
  Out.clear();
  std::stringstream In(S);
  std::string Tok;
  while (std::getline(In, Tok, Sep))
    Out.push_back(unsigned(std::atoi(Tok.c_str())));
  return !Out.empty();
}

/// Per-file progress through the batch.
enum class FileState { Unsent, InFlight, Done, Failed };

} // namespace

int main(int Argc, char **Argv) {
  std::string Endpoint;
  if (const char *S = std::getenv("URSA_SERVICE_SOCKET"))
    Endpoint = S;
  std::vector<std::string> Files;
  ServiceRequest Proto; // machine/options shared by every file
  unsigned Window = 16;
  unsigned Retries = 0;
  bool DoReport = false, DoShutdown = false;
  bool DoStats = false, DoHealth = false, DoClientStats = false;
  bool StatsProm = false, StatsFlight = false;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *S = nullptr;
    std::vector<unsigned> V;
    if ((A == "--connect" || A == "--socket") && (S = Next())) {
      Endpoint = S;
    } else if (A == "--machine" && (S = Next()) && parseUints(S, V, 'x') &&
               V.size() == 2) {
      Proto.Machine.Classed = false;
      Proto.Machine.Fus = V[0];
      Proto.Machine.Regs = V[1];
    } else if (A == "--classed" && (S = Next()) && parseUints(S, V, ',') &&
               V.size() == 5) {
      Proto.Machine.Classed = true;
      Proto.Machine.IntFus = V[0];
      Proto.Machine.FltFus = V[1];
      Proto.Machine.MemFus = V[2];
      Proto.Machine.Gprs = V[3];
      Proto.Machine.Fprs = V[4];
    } else if (A == "--latencies" && (S = Next()) && parseUints(S, V, ',') &&
               V.size() == 3) {
      Proto.Machine.LatInt = V[0];
      Proto.Machine.LatFlt = V[1];
      Proto.Machine.LatMem = V[2];
    } else if (A == "--pipelined") {
      Proto.Machine.Pipelined = true;
    } else if (A == "--order" && (S = Next())) {
      Proto.Order = S;
    } else if (A == "--verify" && (S = Next())) {
      Proto.Verify = S;
    } else if (A == "--guaranteed-fit") {
      Proto.GuaranteedFit = true;
    } else if (A == "--beam" && (S = Next()) && std::atoi(S) > 0) {
      Proto.Beam = unsigned(std::atoi(S));
    } else if (A == "--portfolio") {
      Proto.Portfolio = true;
    } else if (A == "--deadline" && (S = Next())) {
      Proto.DeadlineMs = unsigned(std::atoi(S));
    } else if (A == "--window" && (S = Next()) && std::atoi(S) > 0) {
      Window = unsigned(std::atoi(S));
    } else if (A == "--retries" && (S = Next())) {
      Retries = unsigned(std::atoi(S));
    } else if (A == "--report") {
      DoReport = true;
    } else if (A == "--stats") {
      DoStats = true;
    } else if (A == "--prometheus") {
      DoStats = StatsProm = true;
    } else if (A == "--flight") {
      DoStats = StatsFlight = true;
    } else if (A == "--health") {
      DoHealth = true;
    } else if (A == "--client-stats") {
      DoClientStats = true;
    } else if (A == "--shutdown") {
      DoShutdown = true;
    } else if (A.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown or incomplete option '%s'\n", A.c_str());
      return 1;
    } else {
      Files.push_back(A);
    }
  }
  if (Endpoint.empty() ||
      (Files.empty() && !DoReport && !DoShutdown && !DoStats && !DoHealth)) {
    std::fprintf(stderr,
                 "usage: ursa_batch --connect ENDPOINT [files...] [options]\n"
                 "       (see the header of examples/ursa_batch.cpp)\n");
    return 1;
  }

  // Connect (the initial connection also gets the retry budget: a server
  // mid-restart looks like connect-refused).
  RetryPolicy ConnPolicy;
  ConnPolicy.MaxRetries = Retries;
  ConnPolicy.BackoffBaseMs = 20;
  ConnPolicy.BackoffMaxMs = 1000;
  StatusOr<ServiceClient> COr =
      ServiceClient::connectWithRetry(Endpoint, ConnPolicy);
  if (!COr.isOk()) {
    std::fprintf(stderr, "error: %s\n", COr.status().str().c_str());
    return 1;
  }
  std::optional<ServiceClient> Client(std::move(*COr));

  std::vector<ServiceResponse> Results(Files.size());
  std::vector<FileState> State(Files.size(), FileState::Unsent);
  std::vector<std::string> FailReason(Files.size());
  std::vector<std::string> Sources(Files.size());
  for (size_t I = 0; I != Files.size(); ++I) {
    std::ifstream In(Files[I]);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Files[I].c_str());
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    Sources[I] = Buf.str();
  }

  std::deque<size_t> Pending; // files not yet (re)sent, in input order
  for (size_t I = 0; I != Files.size(); ++I)
    Pending.push_back(I);
  std::vector<size_t> InFlight; // awaiting a response on this connection
  size_t Remaining = Files.size();
  unsigned ReconnectsLeft = Retries;
  unsigned ReconnectRound = 0;
  // Shed handling: the in-flight limit adapts to what the server admits,
  // and each file has its own shed budget and resend time.
  unsigned SendWindow = Window;
  constexpr unsigned MaxShedsPerFile = 32;
  std::vector<unsigned> Sheds(Files.size(), 0);
  std::vector<std::chrono::steady_clock::time_point> ResendAt(Files.size());

  auto FailFile = [&](size_t I, const std::string &Why) {
    State[I] = FileState::Failed;
    FailReason[I] = Why;
    --Remaining;
  };

  /// The connection died. Requeue what the at-most-once rule allows:
  /// unsent files always; in-flight files only on a clean pre-response
  /// close (\p CleanClose).
  auto TransportFailure = [&](bool CleanClose, const std::string &Why) {
    for (size_t I : InFlight) {
      if (CleanClose) {
        State[I] = FileState::Unsent;
        Pending.push_front(I);
      } else {
        FailFile(I, Why + " (indeterminate: not replayed)");
      }
    }
    InFlight.clear();
    Client.reset();
  };

  // Per-file client-observed latency (send to matched response) feeds
  // the ursa.client.e2e_us histogram printed by --client-stats.
  std::vector<std::chrono::steady_clock::time_point> SentAt(Files.size());

  auto SendOne = [&](size_t I) -> bool {
    ServiceRequest R = Proto;
    R.Op = ServiceRequest::OpKind::Compile;
    R.Id = std::to_string(I);
    R.Source = Sources[I];
    SentAt[I] = std::chrono::steady_clock::now();
    Status St = Client->send(R);
    if (St.isOk()) {
      State[I] = FileState::InFlight;
      InFlight.push_back(I);
      return true;
    }
    // EPIPE: the peer closed before this frame went out — never read,
    // safe to retry. Anything else on send is also pre-admission for
    // *this* file (its bytes never completed), so requeue it; the
    // already-in-flight files are settled by the recv path.
    State[I] = FileState::Unsent;
    Pending.push_front(I);
    TransportFailure(/*CleanClose=*/Client->lastErrno() == EPIPE,
                     "send failed: " + St.message());
    return false;
  };

  auto DropInFlight = [&](std::vector<size_t> &V, size_t I) {
    for (size_t K = 0; K != V.size(); ++K)
      if (V[K] == I) {
        V.erase(V.begin() + K);
        return;
      }
  };

  while (Remaining) {
    if (!Client) {
      if (!ReconnectsLeft) {
        while (!Pending.empty()) {
          size_t I = Pending.front();
          Pending.pop_front();
          if (State[I] == FileState::Unsent)
            FailFile(I, "not attempted: transport failed and the retry "
                        "budget is exhausted (--retries)");
        }
        break;
      }
      --ReconnectsLeft;
      unsigned Cap = std::min(1000u, 20u << std::min(ReconnectRound++, 10u));
      std::this_thread::sleep_for(std::chrono::milliseconds(Cap / 2));
      StatusOr<ServiceClient> R = ServiceClient::connect(Endpoint);
      if (!R.isOk())
        continue; // burn another retry (or give up) next iteration
      Client.emplace(std::move(*R));
      ReconnectRound = 0;
    }

    // Send the first ready files in queue order. A file still backing off
    // after a shed keeps its place; the ready files behind it go first.
    bool SendBroke = false;
    const auto Now = std::chrono::steady_clock::now();
    for (size_t Pos = 0;
         Pos < Pending.size() && InFlight.size() < SendWindow;) {
      size_t I = Pending[Pos];
      if (State[I] == FileState::Unsent && Now < ResendAt[I]) {
        ++Pos;
        continue;
      }
      Pending.erase(Pending.begin() + Pos);
      if (State[I] != FileState::Unsent)
        continue;
      if (!SendOne(I)) {
        SendBroke = true;
        break;
      }
    }
    if (SendBroke)
      continue;
    if (InFlight.empty()) {
      // Everything left is backing off: wait for the earliest resend.
      if (!Pending.empty()) {
        auto Wake = ResendAt[Pending.front()];
        for (size_t I : Pending)
          Wake = std::min(Wake, ResendAt[I]);
        std::this_thread::sleep_until(Wake);
      }
      continue;
    }

    ServiceResponse Resp;
    bool Closed = false;
    if (Status St = Client->recv(Resp, Closed); !St.isOk()) {
      TransportFailure(/*CleanClose=*/false,
                       "connection lost: " + St.message());
      continue;
    }
    if (Closed) {
      // Clean FIN: the server drained; responses for everything it
      // admitted were flushed first, so the still-unanswered in-flight
      // files were never started. Requeue them.
      TransportFailure(/*CleanClose=*/true, "server closed");
      continue;
    }

    size_t I = size_t(std::atol(Resp.Id.c_str()));
    if (I >= Files.size() || State[I] != FileState::InFlight) {
      std::fprintf(stderr, "error: response for unknown id '%s'\n",
                   Resp.Id.c_str());
      return 1;
    }
    DropInFlight(InFlight, I);
    if (Resp.Status == ServiceResponse::StatusKind::Shed) {
      // Backpressure: send less at once, and this file backs off and
      // goes to the back of the queue.
      SendWindow = std::max(1u, SendWindow / 2);
      if (++Sheds[I] >= MaxShedsPerFile) {
        FailFile(I, "shed " + std::to_string(MaxShedsPerFile) +
                        " times, giving up: " + Resp.Error);
        continue;
      }
      ResendAt[I] = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(
                        std::min(200u, 5u << std::min(Sheds[I] - 1, 6u)));
      State[I] = FileState::Unsent;
      Pending.push_back(I);
      continue;
    }
    SendWindow = std::min(Window, SendWindow + 1);
    Results[I] = Resp;
    State[I] = FileState::Done;
    clientLatencyHistogram().record(
        uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - SentAt[I])
                     .count()));
    --Remaining;
  }

  int Exit = 0;
  for (size_t I = 0; I != Files.size(); ++I) {
    if (State[I] == FileState::Done &&
        Results[I].Status == ServiceResponse::StatusKind::Ok) {
      std::fputs(Results[I].Text.c_str(), stdout);
    } else {
      Exit = 1;
    }
  }

  // Per-file failure table: every file that did not compile, and why —
  // nothing is lost silently.
  if (Exit) {
    std::fprintf(stderr, "ursa_batch: %zu file(s) failed:\n", [&] {
      size_t N = 0;
      for (size_t I = 0; I != Files.size(); ++I)
        if (State[I] != FileState::Done ||
            Results[I].Status != ServiceResponse::StatusKind::Ok)
          ++N;
      return N;
    }());
    for (size_t I = 0; I != Files.size(); ++I) {
      if (State[I] == FileState::Done &&
          Results[I].Status == ServiceResponse::StatusKind::Ok)
        continue;
      const char *Kind = State[I] == FileState::Done
                             ? statusName(Results[I].Status)
                         : State[I] != FileState::Failed ? "unsent"
                         : Sheds[I] >= MaxShedsPerFile   ? "shed"
                                                         : "transport";
      const std::string &Why = State[I] == FileState::Done
                                   ? Results[I].Error
                                   : FailReason[I];
      std::fprintf(stderr, "  %-40s %-10s %s\n", Files[I].c_str(), Kind,
                   Why.c_str());
    }
  }

  if ((DoReport || DoShutdown || DoStats || DoHealth) && !Client) {
    StatusOr<ServiceClient> R = ServiceClient::connect(Endpoint);
    if (R.isOk())
      Client.emplace(std::move(*R));
  }
  if (DoReport && Client) {
    ServiceRequest R;
    R.Op = ServiceRequest::OpKind::Report;
    R.Id = "report";
    ServiceResponse Resp;
    if (Status St = Client->call(R, Resp); !St.isOk()) {
      std::fprintf(stderr, "error: %s\n", St.str().c_str());
      return 1;
    }
    std::printf("%s\n", Resp.Text.c_str());
  }
  if (DoStats && Client) {
    ServiceRequest R;
    R.Op = ServiceRequest::OpKind::Stats;
    R.Id = "stats";
    if (StatsProm)
      R.StatsFormat = "prometheus";
    R.IncludeFlight = StatsFlight;
    ServiceResponse Resp;
    if (Status St = Client->call(R, Resp); !St.isOk()) {
      std::fprintf(stderr, "error: %s\n", St.str().c_str());
      return 1;
    }
    std::printf("%s\n", Resp.Text.c_str());
  }
  if (DoHealth && Client) {
    ServiceRequest R;
    R.Op = ServiceRequest::OpKind::Health;
    R.Id = "health";
    ServiceResponse Resp;
    if (Status St = Client->call(R, Resp); !St.isOk()) {
      std::fprintf(stderr, "error: %s\n", St.str().c_str());
      return 1;
    }
    std::printf("%s\n", Resp.Text.c_str());
  }
  if (DoClientStats) {
    std::fprintf(stderr, "ursa_batch client stats:\n");
    for (const obs::StatValue &SV : obs::snapshotStats(/*NonZeroOnly=*/true))
      if (SV.Name.rfind("ursa.client", 0) == 0)
        std::fprintf(stderr, "  %-28s %llu\n", SV.Name.c_str(),
                     (unsigned long long)SV.Value);
    obs::HistogramSnapshot H = clientLatencyHistogram().snapshot();
    if (H.Count) {
      std::fprintf(stderr,
                   "  %-28s count %llu  p50 %lluus  p90 %lluus  p99 %lluus  "
                   "max %lluus\n",
                   H.Name.c_str(), (unsigned long long)H.Count,
                   (unsigned long long)H.percentile(0.50),
                   (unsigned long long)H.percentile(0.90),
                   (unsigned long long)H.percentile(0.99),
                   (unsigned long long)H.Max);
    }
  }
  if (DoShutdown && Client) {
    ServiceRequest R;
    R.Op = ServiceRequest::OpKind::Shutdown;
    R.Id = "shutdown";
    ServiceResponse Resp;
    if (Status St = Client->call(R, Resp); !St.isOk()) {
      std::fprintf(stderr, "error: %s\n", St.str().c_str());
      return 1;
    }
  }
  return Exit;
}
