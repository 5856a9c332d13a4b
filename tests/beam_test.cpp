//===- tests/beam_test.cpp - Beam/portfolio driver search -----------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The driver loop's contracts above BeamWidth 1 (width 1 against the
// greedy loop's recorded outcomes is tests/driver_golden_test.cpp): wider
// beams are bit-identical across thread counts and repeat runs and, on
// this corpus, never leave more excess than greedy; portfolio mode —
// which races the default ordering as one of its racers — can only match
// or beat the greedy allocation. The TieBreakSeed permutation tests pin
// the plateau-adoption fix: a shuffled proposal list must never livelock
// the round loop or burn the round budget on no-op winners.
//
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "obs/Stats.h"
#include "ursa/Driver.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ursa;

namespace {

/// Every observable outcome byte-for-byte: accounting, per-resource
/// requirements, and the full round log.
void expectIdentical(const URSAResult &A, const URSAResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Rounds, B.Rounds) << What;
  EXPECT_EQ(A.SeqEdgesAdded, B.SeqEdgesAdded) << What;
  EXPECT_EQ(A.SpillsInserted, B.SpillsInserted) << What;
  EXPECT_EQ(A.WithinLimits, B.WithinLimits) << What;
  EXPECT_EQ(A.FinalRequired, B.FinalRequired) << What;
  EXPECT_EQ(A.CritPathAfter, B.CritPathAfter) << What;
  ASSERT_EQ(A.RoundLog.size(), B.RoundLog.size()) << What;
  for (unsigned I = 0; I != A.RoundLog.size(); ++I) {
    const RoundRecord &X = A.RoundLog[I], &Y = B.RoundLog[I];
    EXPECT_EQ(X.Kind, Y.Kind) << What << " round " << I;
    EXPECT_EQ(X.Resource, Y.Resource) << What << " round " << I;
    EXPECT_EQ(X.Detail, Y.Detail) << What << " round " << I;
    EXPECT_EQ(X.ExcessBefore, Y.ExcessBefore) << What << " round " << I;
    EXPECT_EQ(X.ExcessAfter, Y.ExcessAfter) << What << " round " << I;
    EXPECT_EQ(X.EdgesAdded, Y.EdgesAdded) << What << " round " << I;
    EXPECT_EQ(X.SpillsInserted, Y.SpillsInserted) << What << " round " << I;
  }
}

unsigned excessVsMachine(const URSAResult &R, const MachineModel &M) {
  std::vector<std::pair<ResourceId, unsigned>> Limits = machineResources(M);
  unsigned E = 0;
  for (unsigned I = 0; I != R.FinalRequired.size(); ++I)
    E += R.FinalRequired[I] > Limits[I].second
             ? R.FinalRequired[I] - Limits[I].second
             : 0;
  return E;
}

unsigned sumRequired(const URSAResult &R) {
  unsigned S = 0;
  for (unsigned V : R.FinalRequired)
    S += V;
  return S;
}

/// The differential corpus: tight machines that force multi-round
/// transformation plus an ample machine that converges immediately.
struct Case {
  DependenceDAG DAG;
  MachineModel M;
  std::string Name;
};

std::vector<Case> corpus() {
  std::vector<Case> Out;
  GenOptions G;
  G.Window = 12;
  for (uint64_t Seed : {1ull, 4ull, 9ull}) {
    for (unsigned NI : {30u, 60u}) {
      G.NumInstrs = NI;
      G.Seed = Seed;
      Trace T = generateTrace(G);
      Out.push_back({buildDAG(T), MachineModel::homogeneous(3, 5),
                     "seed" + std::to_string(Seed) + "_n" +
                         std::to_string(NI) + "_3x5"});
      Out.push_back({buildDAG(T), MachineModel::homogeneous(2, 4),
                     "seed" + std::to_string(Seed) + "_n" +
                         std::to_string(NI) + "_2x4"});
    }
  }
  Out.push_back({buildDAG(figure2Trace()), MachineModel::homogeneous(2, 3),
                 "figure2_2x3"});
  Out.push_back({buildDAG(figure2Trace()), MachineModel::homogeneous(4, 8),
                 "figure2_ample"});
  return Out;
}

URSAResult run(const Case &C, unsigned Beam, unsigned Threads,
               uint64_t TieBreakSeed = 0, bool Portfolio = false) {
  URSAOptions O;
  O.BeamWidth = Beam;
  O.Threads = Threads;
  O.TieBreakSeed = TieBreakSeed;
  O.Portfolio = Portfolio;
  return runURSA(C.DAG, C.M, O);
}

uint64_t statValue(const char *Name) {
  for (const obs::StatValue &S : obs::snapshotStats())
    if (S.Name == Name)
      return S.Value;
  return 0;
}

} // namespace

TEST(Beam, BitIdenticalAcrossThreadCounts) {
  for (const Case &C : corpus()) {
    URSAResult Serial = run(C, /*Beam=*/4, /*Threads=*/1);
    URSAResult Threaded = run(C, /*Beam=*/4, /*Threads=*/4);
    expectIdentical(Threaded, Serial, C.Name + " beam4");
  }
}

TEST(Beam, RepeatRunsAreDeterministic) {
  for (const Case &C : corpus()) {
    URSAResult A = run(C, /*Beam=*/3, /*Threads=*/4);
    URSAResult B = run(C, /*Beam=*/3, /*Threads=*/4);
    expectIdentical(A, B, C.Name + " repeat");
  }
}

TEST(Beam, NeverWorseThanGreedyOnExcess) {
  // Not a theorem: slot 1 of every round is the greedy pick of the beam's
  // open states, but once the beam's states differ from greedy's path, a
  // wider beam can end with more excess (at K = 2 it does on some random
  // traces outside this corpus). On this corpus K = 4 never does; the
  // check pins that.
  for (const Case &C : corpus()) {
    URSAResult Greedy = run(C, /*Beam=*/0, /*Threads=*/1);
    URSAResult Beam = run(C, /*Beam=*/4, /*Threads=*/1);
    EXPECT_LE(excessVsMachine(Beam, C.M), excessVsMachine(Greedy, C.M))
        << C.Name;
    EXPECT_FALSE(Beam.VerifyFailed) << C.Name;
  }
}

TEST(Beam, AmpleMachineNeedsNoWork) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  URSAOptions O;
  O.BeamWidth = 4;
  URSAResult R = runURSA(buildDAG(figure2Trace()), M, O);
  EXPECT_TRUE(R.WithinLimits);
  EXPECT_EQ(R.Rounds, 0u);
  EXPECT_EQ(R.SeqEdgesAdded, 0u);
  EXPECT_EQ(R.CritPathBefore, R.CritPathAfter);
}

TEST(Beam, ExportsBeamStats) {
  obs::resetStats();
  MachineModel M = MachineModel::homogeneous(2, 3);
  URSAOptions O;
  O.BeamWidth = 4;
  URSAResult R = runURSA(buildDAG(figure2Trace()), M, O);
  EXPECT_GT(R.Rounds, 0u);
  EXPECT_GT(statValue("ursa.driver.beam.rounds"), 0u);
  EXPECT_GE(statValue("ursa.driver.rounds"),
            statValue("ursa.driver.beam.rounds"));
}

TEST(Beam, KernelsFitModestMachinesAtWidthFour) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  URSAOptions O;
  O.BeamWidth = 4;
  for (auto &[Name, T] : kernelSuite()) {
    URSAResult R = runURSA(buildDAG(T), M, O);
    EXPECT_TRUE(R.WithinLimits) << Name;
    EXPECT_FALSE(R.VerifyFailed) << Name;
  }
}

TEST(Portfolio, NeverWorseThanDefaultOrdering) {
  // The portfolio races the configured ordering as one of its racers, so
  // the winner can only match or beat the plain run.
  for (const Case &C : corpus()) {
    URSAResult Greedy = run(C, /*Beam=*/0, /*Threads=*/1);
    URSAResult Port = run(C, /*Beam=*/0, /*Threads=*/1, /*TieBreakSeed=*/0,
                          /*Portfolio=*/true);
    EXPECT_LE(excessVsMachine(Port, C.M), excessVsMachine(Greedy, C.M))
        << C.Name;
    if (excessVsMachine(Port, C.M) == excessVsMachine(Greedy, C.M)) {
      EXPECT_LE(sumRequired(Port), sumRequired(Greedy)) << C.Name;
    }
    EXPECT_FALSE(Port.VerifyFailed) << C.Name;
  }
}

TEST(Portfolio, DeterministicAcrossRunsAndThreads) {
  for (const Case &C : corpus()) {
    URSAResult A = run(C, /*Beam=*/2, /*Threads=*/1, 0, /*Portfolio=*/true);
    URSAResult B = run(C, /*Beam=*/2, /*Threads=*/4, 0, /*Portfolio=*/true);
    expectIdentical(A, B, C.Name + " portfolio");
  }
}

TEST(Portfolio, CountsRacers) {
  obs::resetStats();
  MachineModel M = MachineModel::homogeneous(2, 3);
  URSAOptions O;
  O.Portfolio = true;
  URSAResult R = runURSA(buildDAG(figure2Trace()), M, O);
  EXPECT_FALSE(R.VerifyFailed);
  EXPECT_GE(statValue("ursa.driver.portfolio.runs"), 3u);
}

// The satellite-1 regression: permuting the proposal collection order
// (what TieBreakSeed does each round) once livelocked the plateau-winner
// path — an equal-excess FU winner whose edges were all already present
// re-applied as a no-op every round, never advancing the fingerprint, and
// burned MaxRounds without tripping the livelock detector. The fix skips
// fingerprint-preserving candidates during reduction, so every kept round
// makes progress under any proposal order.
TEST(TieBreak, PermutedProposalOrderNeverLivelocks) {
  for (const Case &C : corpus()) {
    for (uint64_t Seed : {1ull, 42ull, 0x5eedull}) {
      URSAResult R = run(C, /*Beam=*/0, /*Threads=*/1, Seed);
      EXPECT_FALSE(R.LivelockDetected) << C.Name << " seed " << Seed;
      for (const std::string &S : R.StopReasons)
        EXPECT_NE(S, "max_rounds") << C.Name << " seed " << Seed;
      // Every kept round must claim progress (edges or spills): a no-op
      // winner would show a round with neither.
      for (const RoundRecord &RR : R.RoundLog)
        EXPECT_TRUE(RR.EdgesAdded || RR.SpillsInserted)
            << C.Name << " seed " << Seed << " round " << RR.Round;
    }
  }
}

TEST(TieBreak, PermutationPreservesAllocationQuality) {
  // Scoring is order-independent; only exact-tie winners may change. The
  // shuffled runs must land on allocations of the same quality class.
  for (const Case &C : corpus()) {
    URSAResult Base = run(C, /*Beam=*/0, /*Threads=*/1, 0);
    for (uint64_t Seed : {7ull, 1234ull}) {
      URSAResult P = run(C, /*Beam=*/0, /*Threads=*/1, Seed);
      EXPECT_EQ(excessVsMachine(P, C.M), excessVsMachine(Base, C.M))
          << C.Name << " seed " << Seed;
      EXPECT_EQ(P.WithinLimits, Base.WithinLimits)
          << C.Name << " seed " << Seed;
    }
  }
}

TEST(TieBreak, SeedZeroIsHistoricalOrder) {
  for (const Case &C : corpus()) {
    URSAResult A = run(C, /*Beam=*/0, /*Threads=*/1, 0);
    URSAResult B = run(C, /*Beam=*/0, /*Threads=*/1, 0);
    expectIdentical(A, B, C.Name + " seed0");
  }
}
