//===- bench/bench_beam_search.cpp - Beam/portfolio vs greedy -------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The beam-search acceptance gate. Over the transform-dominated tiers
// (tight machines that force multi-round reduction) it checks, by exit
// code:
//
//   1. determinism  — BeamWidth=4 is bit-identical at 1 and 4 threads;
//   2. quality      — beam (K<=4) or portfolio finds strictly fewer total
//                     required registers+FUs than greedy on at least one
//                     transform tier;
//   3. cost         — the winning beam config spends at most 3x greedy
//                     wall-clock on the tier where it wins.
//
// Greedy is the same driver loop at BeamWidth=1; its outcomes are pinned
// by tests/driver_golden_test.cpp. The table and BENCH_beam_search.json
// artifact carry per-tier sums of required resources and wall time for
// greedy, beam K=2/K=4, and portfolio, so regressions show up as numbers,
// not just a flipped bit.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "graph/DAGBuilder.h"
#include "ursa/Driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>

using namespace ursa;
using namespace ursa::bench;

namespace {

struct RunOutcome {
  double Ms = 0;
  URSAResult Result;
};

RunOutcome timeDriver(const DependenceDAG &D, const MachineModel &M,
                      unsigned Beam, unsigned Threads, bool Portfolio) {
  URSAOptions O;
  O.BeamWidth = Beam;
  O.Threads = Threads;
  O.Portfolio = Portfolio;
  auto T0 = std::chrono::steady_clock::now();
  URSAResult R = runURSA(D, M, O);
  auto T1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double, std::milli>(T1 - T0).count(),
          std::move(R)};
}

bool sameRound(const RoundRecord &A, const RoundRecord &B) {
  return A.Round == B.Round && A.Kind == B.Kind && A.Resource == B.Resource &&
         A.Detail == B.Detail && A.ExcessBefore == B.ExcessBefore &&
         A.ExcessAfter == B.ExcessAfter && A.CritPath == B.CritPath &&
         A.EdgesAdded == B.EdgesAdded &&
         A.SpillsInserted == B.SpillsInserted &&
         A.ProposalsTried == B.ProposalsTried;
}

bool sameOutcome(const URSAResult &A, const URSAResult &B) {
  if (A.FinalRequired != B.FinalRequired ||
      A.RoundLog.size() != B.RoundLog.size() ||
      A.WithinLimits != B.WithinLimits)
    return false;
  for (unsigned I = 0; I != A.RoundLog.size(); ++I)
    if (!sameRound(A.RoundLog[I], B.RoundLog[I]))
      return false;
  return true;
}

unsigned sumRequired(const URSAResult &R) {
  unsigned S = 0;
  for (unsigned V : R.FinalRequired)
    S += V;
  return S;
}

struct Config {
  const char *Name;
  unsigned Beam;
  bool Portfolio;
};

constexpr Config Configs[] = {
    {"greedy", 1, false},
    {"beam2", 2, false},
    {"beam4", 4, false},
    {"portfolio", 1, true},
};
constexpr unsigned NumConfigs = sizeof(Configs) / sizeof(Configs[0]);

struct Tier {
  std::string Name;
  unsigned NumInstrs;
  std::vector<std::pair<DependenceDAG, MachineModel>> Runs;
  double TotalMs[NumConfigs] = {0};
  unsigned TotalReq[NumConfigs] = {0};
};

} // namespace

int main() {
  std::printf("beam/portfolio search vs the greedy driver\n\n");

  // Transform-dominated tiers on genuinely tight machines (2 FUs, 4 or 6
  // registers): reduction runs many rounds and greedy's single trajectory
  // leaves resources on the table that a wider search recovers. Ample
  // machines are useless here — every config converges to the same
  // requirement once the trace fits.
  std::vector<Tier> Tiers;
  for (unsigned NI : {40u, 80u, 120u}) {
    Tier T;
    T.Name = "transform_" + std::to_string(NI);
    T.NumInstrs = NI;
    for (uint64_t Seed : {3ull, 5ull, 7ull, 11ull}) {
      GenOptions G;
      G.NumInstrs = NI;
      G.Window = 12;
      G.Seed = Seed;
      DependenceDAG D = buildDAG(generateTrace(G));
      T.Runs.emplace_back(D, MachineModel::homogeneous(2, 4));
      T.Runs.emplace_back(std::move(D), MachineModel::homogeneous(2, 6));
    }
    Tiers.push_back(std::move(T));
  }

  bool ThreadDeterministic = true;
  for (Tier &T : Tiers) {
    for (auto &[D, M] : T.Runs) {
      for (unsigned C = 0; C != NumConfigs; ++C) {
        RunOutcome O = timeDriver(D, M, Configs[C].Beam, /*Threads=*/4,
                                  Configs[C].Portfolio);
        T.TotalMs[C] += O.Ms;
        T.TotalReq[C] += sumRequired(O.Result);
        if (Configs[C].Beam == 4 && !Configs[C].Portfolio) {
          // Gate 1: K=4 serial reproduces K=4 threaded bit-for-bit.
          URSAOptions Serial;
          Serial.BeamWidth = 4;
          Serial.Threads = 1;
          URSAResult S = runURSA(D, M, Serial);
          if (!sameOutcome(O.Result, S)) {
            ThreadDeterministic = false;
            std::fprintf(stderr, "THREAD DIVERGENCE (beam4) on %s tier\n",
                         T.Name.c_str());
          }
        }
      }
    }
  }

  // Gates 2+3: some search config beats greedy's total registers+FUs
  // outright on a tier, within the 3x wall-clock budget on that tier.
  bool QualityWin = false, CostOk = false;
  std::string WinTier, WinConfig;
  for (const Tier &T : Tiers)
    for (unsigned C = 1; C != NumConfigs; ++C)
      if (T.TotalReq[C] < T.TotalReq[0] && !QualityWin) {
        QualityWin = true;
        CostOk = T.TotalMs[C] <= 3.0 * T.TotalMs[0];
        WinTier = T.Name;
        WinConfig = Configs[C].Name;
      }

  Table Tbl({"tier", "instrs", "greedy req", "beam2 req", "beam4 req",
             "portfolio req", "greedy ms", "beam4 ms", "portfolio ms"});
  for (Tier &T : Tiers)
    Tbl.addRow({T.Name, Table::fmt(uint64_t(T.NumInstrs)),
                Table::fmt(uint64_t(T.TotalReq[0])),
                Table::fmt(uint64_t(T.TotalReq[1])),
                Table::fmt(uint64_t(T.TotalReq[2])),
                Table::fmt(uint64_t(T.TotalReq[3])),
                Table::fmt(T.TotalMs[0], 1), Table::fmt(T.TotalMs[2], 1),
                Table::fmt(T.TotalMs[3], 1)});
  Tbl.print(std::cout);

  std::printf("\nthread-deterministic: %s; quality win: %s%s%s; "
              "cost<=3x: %s\n",
              ThreadDeterministic ? "yes" : "NO", QualityWin ? "yes (" : "NO",
              QualityWin ? (WinConfig + " on " + WinTier).c_str() : "",
              QualityWin ? ")" : "", CostOk ? "yes" : "NO");

  std::string Artifact =
      writeBenchArtifact("beam_search", [&](obs::JsonWriter &W) {
        W.beginObject();
        W.kv("thread_deterministic", ThreadDeterministic);
        W.kv("quality_win", QualityWin);
        W.kv("quality_win_tier", WinTier);
        W.kv("quality_win_config", WinConfig);
        W.kv("cost_within_3x", CostOk);
        W.key("tiers").beginArray();
        for (Tier &T : Tiers) {
          W.beginObject();
          W.kv("tier", T.Name);
          W.kv("instrs", uint64_t(T.NumInstrs));
          W.kv("traces", uint64_t(T.Runs.size()));
          for (unsigned C = 0; C != NumConfigs; ++C) {
            W.kv(std::string(Configs[C].Name) + "_req",
                 uint64_t(T.TotalReq[C]));
            W.kv(std::string(Configs[C].Name) + "_ms", T.TotalMs[C]);
          }
          W.endObject();
        }
        W.endArray();
        W.endObject();
      });
  if (!Artifact.empty())
    std::printf("artifact: %s\n", Artifact.c_str());

  return ThreadDeterministic && QualityWin && CostOk ? 0 : 1;
}
