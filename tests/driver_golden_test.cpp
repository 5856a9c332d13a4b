//===- tests/driver_golden_test.cpp - Driver golden differential ----------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the driver loop's complete observable outcome on a fixed corpus to
// tests/corpus/driver_golden.txt, one line per run. The file was written
// by the keep-one-winner greedy loop that the single driver loop replaced,
// so at BeamWidth 1 this is the "beam 1 is greedy" gate: accounting,
// per-resource requirements, critical path, stop reasons, flags, closure
// peak, a hash of every RoundRecord but its duration, and the final DAG's
// fingerprint. Lines preceded by a "# was:" comment are runs where the
// greedy loop re-entered a DAG state it already held in the same phase,
// which the single loop's per-phase fingerprint set refuses; the comment
// keeps the greedy value.
//
// The corpus spans the kernel suite, figure 2 and random traces on four
// machines, under every phase order, incremental scoring off, the X4
// ablations, the guardrails and portfolio mode, at two tie-break seeds.
// It is checked in slices at 1 and 4 evaluation threads; the `verify`
// label reruns it under URSA_VERIFY=full. Results must not depend on the
// thread count, URSA_INCREMENTAL or the verification level. The
// `default` runs are checked once more with every admitted round stalled
// by 1 ms, a deterministic stand-in for a machine slowed by other load:
// results must not depend on the clock either.
//
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "ursa/Driver.h"
#include "ursa/FaultInjector.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

using namespace ursa;

namespace {

struct Variant {
  const char *Name;
  void (*Apply)(URSAOptions &);
  bool AllInputs; ///< every input, or only the variant subset
};

const Variant Variants[] = {
    {"default", [](URSAOptions &) {}, true},
    {"fus_first", [](URSAOptions &O) { O.Order = PhaseOrdering::FUsFirst; },
     false},
    {"integrated",
     [](URSAOptions &O) { O.Order = PhaseOrdering::Integrated; }, false},
    {"inc_off", [](URSAOptions &O) { O.IncrementalMeasure = false; }, false},
    {"spill_only", [](URSAOptions &O) { O.EnableRegSeq = false; }, false},
    {"seq_only", [](URSAOptions &O) { O.EnableSpills = false; }, false},
    {"fit_total3",
     [](URSAOptions &O) {
       O.GuaranteedFit = true;
       O.MaxTotalRounds = 3;
     },
     false},
    {"max_rounds4", [](URSAOptions &O) { O.MaxRounds = 4; }, false},
    {"portfolio", [](URSAOptions &O) { O.Portfolio = true; }, false},
};

struct Input {
  std::string Name;
  DependenceDAG DAG;
  bool InVariantSubset;
};

std::vector<Input> goldenInputs() {
  std::vector<Input> In;
  for (auto &[Name, T] : kernelSuite()) {
    bool Subset = Name == "figure2" || Name == "dot8" || Name == "scan12";
    In.push_back({Name, buildDAG(T), Subset});
  }
  In.push_back({"fig2", buildDAG(figure2Trace()), true});
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    GenOptions G;
    G.NumInstrs = 30 + 5 * unsigned(Seed % 4);
    G.Window = 8 + unsigned(Seed % 3) * 2;
    G.Seed = Seed;
    In.push_back({"rand" + std::to_string(Seed), buildDAG(generateTrace(G)),
                  Seed <= 4});
  }
  return In;
}

const std::pair<unsigned, unsigned> Machines[] = {
    {1, 3}, {2, 3}, {2, 4}, {4, 4}};
const uint64_t TieBreakSeeds[] = {0, 7};

/// One corpus run: its stable name and the options it runs under.
struct GoldenRun {
  std::string Name;
  const DependenceDAG *DAG;
  MachineModel M;
  URSAOptions Opts;
};

std::vector<GoldenRun> goldenRuns(const std::vector<Input> &In) {
  std::vector<GoldenRun> Runs;
  for (const Variant &V : Variants)
    for (const Input &I : In) {
      if (!V.AllInputs && !I.InVariantSubset)
        continue;
      for (auto [F, R] : Machines)
        for (uint64_t Seed : TieBreakSeeds) {
          GoldenRun G{std::string(V.Name) + "/" + I.Name + "/" +
                          std::to_string(F) + "x" + std::to_string(R) +
                          "/seed" + std::to_string(Seed),
                      &I.DAG, MachineModel::homogeneous(F, R), {}};
          G.Opts.BeamWidth = 1; // whatever URSA_BEAM says
          G.Opts.TieBreakSeed = Seed;
          V.Apply(G.Opts);
          Runs.push_back(std::move(G));
        }
    }
  return Runs;
}

/// FNV-1a over every RoundRecord field except DurationMs.
uint64_t roundLogHash(const std::vector<RoundRecord> &Log) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](const std::string &S) {
    for (unsigned char C : S)
      H = (H ^ C) * 0x100000001b3ULL;
    H = (H ^ 0xff) * 0x100000001b3ULL; // field separator
  };
  for (const RoundRecord &RR : Log) {
    Mix(std::to_string(RR.Round));
    Mix(std::to_string(unsigned(RR.Kind)));
    Mix(RR.Resource);
    Mix(RR.Detail);
    Mix(std::to_string(RR.ExcessBefore));
    Mix(std::to_string(RR.ExcessAfter));
    Mix(std::to_string(RR.CritPath));
    Mix(std::to_string(RR.EdgesAdded));
    Mix(std::to_string(RR.SpillsInserted));
    Mix(std::to_string(RR.ProposalsTried));
  }
  return H;
}

/// Everything observable about one run, as one line (without the name).
std::string goldenLine(const URSAResult &R) {
  std::string L = "rounds=" + std::to_string(R.Rounds) +
                  " seq=" + std::to_string(R.SeqEdgesAdded) +
                  " spills=" + std::to_string(R.SpillsInserted) + " req=";
  for (size_t I = 0; I != R.FinalRequired.size(); ++I)
    L += (I ? "," : "") + std::to_string(R.FinalRequired[I]);
  L += " cp=" + std::to_string(R.CritPathBefore) + "->" +
       std::to_string(R.CritPathAfter) + " stop=";
  for (size_t I = 0; I != R.StopReasons.size(); ++I)
    L += (I ? "," : "") + R.StopReasons[I];
  L += " flags=";
  L += R.WithinLimits ? 'W' : '-';
  L += R.VerifyFailed ? 'V' : '-';
  L += R.LivelockDetected ? 'L' : '-';
  L += R.BudgetExhausted ? 'B' : '-';
  L += R.FallbackUsed ? 'F' : '-';
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), " peak=%zu log=%016llx dag=%016llx",
                R.ClosureBytesPeak,
                (unsigned long long)roundLogHash(R.RoundLog),
                (unsigned long long)dagFingerprint(R.DAG));
  return L + Buf;
}

/// The golden file: run name -> expected line. '#' lines are comments.
std::map<std::string, std::string> readGolden() {
  std::map<std::string, std::string> Out;
  std::ifstream In(URSA_DRIVER_GOLDEN);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Sp = Line.find(' ');
    Out[Line.substr(0, Sp)] = Line.substr(Sp + 1);
  }
  return Out;
}

constexpr unsigned NumSlices = 12;

class DriverGolden
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

} // namespace

TEST_P(DriverGolden, MatchesRecordedOutcome) {
  auto [Threads, Slice] = GetParam();
  static const std::map<std::string, std::string> Golden = readGolden();
  static const std::vector<Input> In = goldenInputs();
  std::vector<GoldenRun> Runs = goldenRuns(In);
  ASSERT_EQ(Golden.size(), Runs.size()) << "golden file out of date";
  for (size_t I = Slice; I < Runs.size(); I += NumSlices) {
    GoldenRun &G = Runs[I];
    G.Opts.Threads = Threads;
    auto It = Golden.find(G.Name);
    ASSERT_NE(It, Golden.end()) << G.Name << " missing from the golden file";
    EXPECT_EQ(goldenLine(runURSA(*G.DAG, G.M, G.Opts)), It->second)
        << G.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Slices, DriverGolden,
    ::testing::Combine(::testing::Values(1u, 4u),
                       ::testing::Range(0u, NumSlices)),
    [](const ::testing::TestParamInfo<DriverGolden::ParamType> &Info) {
      return "t" + std::to_string(std::get<0>(Info.param)) + "_s" +
             std::to_string(std::get<1>(Info.param));
    });

/// The stalled check runs the 168 `default` runs in this many slices.
constexpr unsigned NumStalledSlices = 4;

class DriverGoldenStalled : public ::testing::TestWithParam<unsigned> {};

TEST_P(DriverGoldenStalled, DefaultRunsIgnoreTheClock) {
  static const std::map<std::string, std::string> Golden = readGolden();
  static const std::vector<Input> In = goldenInputs();
  std::vector<GoldenRun> Runs;
  for (GoldenRun &G : goldenRuns(In))
    if (G.Name.rfind("default/", 0) == 0)
      Runs.push_back(std::move(G));
  ASSERT_EQ(Runs.size(), 168u);
  for (size_t I = GetParam(); I < Runs.size(); I += NumStalledSlices) {
    GoldenRun &G = Runs[I];
    FaultInjector Stall(FaultKind::StallRound);
    Stall.withStallMs(1);
    G.Opts.Faults = &Stall;
    auto It = Golden.find(G.Name);
    ASSERT_NE(It, Golden.end()) << G.Name << " missing from the golden file";
    EXPECT_EQ(goldenLine(runURSA(*G.DAG, G.M, G.Opts)), It->second)
        << G.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Slices, DriverGoldenStalled,
                         ::testing::Range(0u, NumStalledSlices));
