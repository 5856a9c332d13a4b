//===- tests/driveropts_test.cpp - URSA driver option contracts -----------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "ursa/Compiler.h"
#include "ursa/Driver.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

using namespace ursa;

TEST(DriverOptions, DisabledSpillsMeansNoSpills) {
  MachineModel M = MachineModel::homogeneous(4, 4);
  URSAOptions UO;
  UO.EnableSpills = false;
  for (auto &[Name, T] : kernelSuite()) {
    URSAResult R = runURSA(buildDAG(T), M, UO);
    EXPECT_EQ(R.SpillsInserted, 0u) << Name;
    // No spill instructions in the transformed trace either.
    for (const Instruction &I : R.DAG.trace().instructions())
      EXPECT_FALSE(isSpillOp(I.opcode())) << Name;
  }
}

TEST(DriverOptions, DisabledRegSeqStillSpills) {
  MachineModel M = MachineModel::homogeneous(4, 4);
  URSAOptions UO;
  UO.EnableRegSeq = false;
  URSAResult R = runURSA(buildDAG(dotProductTrace(8)), M, UO);
  // dot8 needs register work on 4 registers; with sequencing off it can
  // only come from spills.
  EXPECT_GT(R.SpillsInserted, 0u);
}

TEST(DriverOptions, MaxRoundsZeroDoesNothing) {
  MachineModel M = MachineModel::homogeneous(2, 3);
  URSAOptions UO;
  UO.MaxRounds = 0;
  URSAResult R = runURSA(buildDAG(figure2Trace()), M, UO);
  EXPECT_EQ(R.Rounds, 0u);
  EXPECT_EQ(R.CritPathBefore, R.CritPathAfter);
  EXPECT_FALSE(R.WithinLimits);
}

TEST(DriverOptions, RoundLogAlwaysCollected) {
  MachineModel M = MachineModel::homogeneous(2, 3);
  URSAResult R = runURSA(buildDAG(figure2Trace()), M);
  EXPECT_GT(R.Rounds, 0u);
  EXPECT_EQ(R.RoundLog.size(), R.Rounds);
}

TEST(DriverOptions, MaxRoundsTripIsRecorded) {
  MachineModel M = MachineModel::homogeneous(2, 3);
  URSAOptions UO;
  UO.MaxRounds = 1; // figure2 needs several rounds on a 2x3 machine
  URSAResult R = runURSA(buildDAG(figure2Trace()), M, UO);
  EXPECT_NE(std::find(R.StopReasons.begin(), R.StopReasons.end(),
                      "max_rounds"),
            R.StopReasons.end());
  bool Diagnosed = false;
  for (const Diag &Dg : R.Diags)
    Diagnosed |= Dg.Message.find("MaxRounds") != std::string::npos;
  EXPECT_TRUE(Diagnosed);
}

TEST(DriverOptions, PassedDeadlineCancelsTheRun) {
  // A deadline that has already passed cancels the run at its first
  // check: stop reason "deadline", no fallback (even with GuaranteedFit),
  // and no program from either compile entry point.
  MachineModel M = MachineModel::homogeneous(2, 3);
  for (bool Portfolio : {false, true}) {
    URSAOptions UO;
    UO.GuaranteedFit = true;
    UO.Portfolio = Portfolio;
    UO.Deadline = std::chrono::steady_clock::now();
    URSAResult R = runURSA(buildDAG(figure2Trace()), M, UO);
    EXPECT_EQ(R.StopReasons, std::vector<std::string>{"deadline"})
        << Portfolio;
    EXPECT_TRUE(runWasCancelled(R.StopReasons));
    EXPECT_FALSE(R.FallbackUsed);
    EXPECT_FALSE(R.WithinLimits);
    EXPECT_EQ(R.Rounds, 0u);

    URSACompileResult C = compileURSA(figure2Trace(), M, UO);
    EXPECT_FALSE(C.Compile.Ok);
    EXPECT_FALSE(C.Compile.Prog.has_value());
    EXPECT_FALSE(C.FallbackUsed);
    EXPECT_EQ(C.AllocStopReasons, std::vector<std::string>{"deadline"});
    EXPECT_NE(C.Compile.Error.find("deadline"), std::string::npos)
        << C.Compile.Error;

    StatusOr<URSACompileResult> Checked =
        compileURSAChecked(figure2Trace(), M, UO);
    ASSERT_FALSE(Checked.isOk());
    EXPECT_NE(Checked.status().str().find("deadline"), std::string::npos)
        << Checked.status().str();
  }
}

TEST(DriverOptions, ExactKillSolverWorksEndToEnd) {
  MachineModel M = MachineModel::homogeneous(3, 5);
  URSAOptions UO;
  UO.Measure.KillSolver = 1;
  GenOptions Opts;
  Opts.NumInstrs = 22;
  for (uint64_t Seed = 1; Seed != 5; ++Seed) {
    Opts.Seed = Seed * 11;
    URSAResult R = runURSA(buildDAG(generateTrace(Opts)), M, UO);
    EXPECT_TRUE(R.WithinLimits) << "seed " << Seed;
  }
}

TEST(DriverOptions, PlainMatchingWorksEndToEnd) {
  MachineModel M = MachineModel::homogeneous(3, 5);
  URSAOptions UO;
  UO.Measure.PrioritizedMatching = false;
  for (auto &[Name, T] : kernelSuite()) {
    URSAResult R = runURSA(buildDAG(T), M, UO);
    // The plain decomposition is still minimum (Theorem 1): the final
    // requirement must agree with the prioritized run's certificate.
    URSAResult P = runURSA(buildDAG(T), M);
    EXPECT_EQ(R.WithinLimits, P.WithinLimits) << Name;
  }
}

TEST(DriverOptions, ResultCarriesTransformedTraceGrowth) {
  MachineModel M = MachineModel::homogeneous(2, 3);
  Trace T = figure2Trace();
  unsigned Before = T.size();
  URSAResult R = runURSA(buildDAG(T), M);
  // Each inserted spill adds a store+reload pair (re-gates add none).
  EXPECT_GE(R.DAG.trace().size(), Before);
  EXPECT_LE(R.DAG.trace().size(), Before + 2 * R.SpillsInserted);
}
