//===- tests/faultinject_test.cpp - Fault matrix through the driver -------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the full pipeline with an armed FaultInjector and proves the
// guardrails hold: every fault class is either caught (diagnostics, no
// crash, no silent miscompile) or healed (the fixpoint loop re-does the
// undone work), budgets terminate livelocked runs, and the guaranteed-fit
// fallback always produces a fitting, semantically correct program.
//
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "ir/Parser.h"
#include "ursa/Compiler.h"
#include "ursa/Driver.h"
#include "ursa/FaultInjector.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace ursa;

namespace {

/// Paper figure 2 on the paper's tight machine: guaranteed to need
/// several transformation rounds, which gives the injector a window.
const MachineModel TightM = MachineModel::homogeneous(2, 3);

URSAOptions verifiedOpts(FaultInjector *FI, unsigned Beam = 1) {
  URSAOptions Opts;
  Opts.Verify = VerifyLevel::Basic;
  Opts.Faults = FI;
  Opts.BeamWidth = Beam;
  return Opts;
}

/// The driver cases hold at the greedy width and at a wide beam: the
/// hooks run on every admitted successor of the one driver loop.
const unsigned BeamWidths[] = {1, 4};

bool hasError(const std::vector<Diag> &Diags, const std::string &Needle) {
  for (const Diag &D : Diags)
    if (D.Sev == Severity::Error &&
        D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

TEST(FaultMatrix, CycleInjectionCaughtByDriver) {
  for (unsigned Beam : BeamWidths) {
    SCOPED_TRACE("beam " + std::to_string(Beam));
    FaultInjector FI(FaultKind::CycleEdge, /*Seed=*/7, /*FireAtRound=*/1);
    URSAResult R =
        runURSA(buildDAG(figure2Trace()), TightM, verifiedOpts(&FI, Beam));
    ASSERT_TRUE(FI.fired()) << "no round ever ran, fault never armed";
    EXPECT_TRUE(R.VerifyFailed);
    EXPECT_TRUE(hasError(R.Diags, "cycle")) << "diags: " << R.Diags.size();
    EXPECT_TRUE(R.FinalRequired.empty()) << "corrupt DAG must not be measured";
  }
}

TEST(FaultMatrix, DanglingEdgeInjectionCaughtByDriver) {
  for (unsigned Beam : BeamWidths) {
    SCOPED_TRACE("beam " + std::to_string(Beam));
    FaultInjector FI(FaultKind::DanglingEdge, 7, 1);
    URSAResult R =
        runURSA(buildDAG(figure2Trace()), TightM, verifiedOpts(&FI, Beam));
    ASSERT_TRUE(FI.fired());
    EXPECT_TRUE(R.VerifyFailed);
    EXPECT_TRUE(hasError(R.Diags, "dangling"));
  }
}

TEST(FaultMatrix, FalseProgressDetectedAsLivelock) {
  for (unsigned Beam : BeamWidths) {
    SCOPED_TRACE("beam " + std::to_string(Beam));
    FaultInjector FI(FaultKind::FalseProgress, 7, 0);
    URSAResult R =
        runURSA(buildDAG(figure2Trace()), TightM, verifiedOpts(&FI, Beam));
    ASSERT_TRUE(FI.fired());
    EXPECT_TRUE(R.LivelockDetected);
    EXPECT_FALSE(R.VerifyFailed) << "the DAG itself is sound";
    EXPECT_TRUE(hasError(R.Diags, "reported progress"));
    EXPECT_EQ(R.Rounds, 1u) << "the lying transform must not loop";
  }
}

TEST(FaultMatrix, DroppedSequenceEdgeIsHealedByTheFixpoint) {
  // Un-doing allocation work behind the driver's back leaves a *valid*
  // DAG, so the verifier stays quiet — but the sweep loop re-measures and
  // re-does the work, and the result still fits and still runs right.
  for (unsigned Beam : BeamWidths) {
    SCOPED_TRACE("beam " + std::to_string(Beam));
    FaultInjector FI(FaultKind::DropSeqEdge, 7, 1);
    URSAOptions Opts = verifiedOpts(&FI, Beam);
    Opts.Verify = VerifyLevel::Full;
    URSACompileResult R = compileURSA(figure2Trace(), TightM, Opts);
    ASSERT_TRUE(FI.fired());
    EXPECT_FALSE(R.VerifyFailed);
    ASSERT_TRUE(R.Compile.Ok) << R.Compile.Error;
  }
}

TEST(FaultMatrix, CompileURSAReturnsDiagnosticsInsteadOfCrashing) {
  FaultInjector FI(FaultKind::CycleEdge, 13, 1);
  URSACompileResult R =
      compileURSA(figure2Trace(), TightM, verifiedOpts(&FI));
  EXPECT_TRUE(R.VerifyFailed);
  EXPECT_FALSE(R.Compile.Ok);
  EXPECT_FALSE(R.Compile.Error.empty());
  EXPECT_FALSE(R.Diags.empty());
  EXPECT_FALSE(R.Compile.Prog.has_value());
}

TEST(FaultMatrix, FrontGateRejectsMalformedTrace) {
  Trace T = figure2Trace();
  // Break single assignment: re-point one definition at an earlier one.
  int FirstDef = -1;
  for (unsigned Idx = 0; Idx != T.size(); ++Idx) {
    if (T.instr(Idx).dest() < 0)
      continue;
    if (FirstDef < 0) {
      FirstDef = T.instr(Idx).dest();
    } else {
      T.instr(Idx).setDest(FirstDef);
      FirstDef = -2;
      break;
    }
  }
  ASSERT_EQ(FirstDef, -2) << "trace has fewer than two definitions?";
  URSAOptions Opts;
  Opts.Verify = VerifyLevel::Basic;
  URSACompileResult R = compileURSA(T, TightM, Opts);
  EXPECT_TRUE(R.VerifyFailed);
  EXPECT_FALSE(R.Compile.Ok);
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags.front().Phase, "input");
}

//===----------------------------------------------------------------------===//
// Budgets, livelock, fallback
//===----------------------------------------------------------------------===//

TEST(Guardrails, RoundBudgetTerminatesAndReportsHonestly) {
  URSAOptions Opts;
  Opts.MaxTotalRounds = 1;
  URSAResult R = runURSA(buildDAG(figure2Trace()), TightM, Opts);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_LE(R.Rounds, 1u);
  EXPECT_FALSE(R.WithinLimits) << "one round cannot fit figure 2 on 2x3";
  ASSERT_EQ(R.FinalRequired.size(), 2u)
      << "accounting must survive a budget bail-out";
  bool Warned = false;
  for (const Diag &D : R.Diags)
    Warned |= D.Sev == Severity::Warning &&
              D.Message.find("budget") != std::string::npos;
  EXPECT_TRUE(Warned);
}

TEST(Guardrails, DefaultBudgetNeverFiresOnHonestRuns) {
  // Honest runs never exhaust the default budget or fail verification.
  // A plateaued run on a tight machine MAY report livelock (that is the
  // graceful hand-off of the residual to the assignment phase), but only
  // ever as a warning — errors are reserved for broken invariants.
  MachineModel M = MachineModel::homogeneous(2, 4);
  for (auto &[Name, T] : kernelSuite()) {
    URSAResult R = runURSA(buildDAG(T), M);
    EXPECT_FALSE(R.BudgetExhausted) << Name;
    EXPECT_FALSE(R.VerifyFailed) << Name;
    for (const Diag &D : R.Diags)
      EXPECT_NE(D.Sev, Severity::Error) << Name << ": " << D.str();
  }
}

TEST(Guardrails, GuaranteedFitForcesEveryRequirementWithinLimits) {
  // Exhaust the budget immediately so the reduction phases contribute
  // nothing — the fallback alone must make figure 2 fit the 2x3 machine.
  URSAOptions Opts;
  Opts.MaxTotalRounds = 0;
  Opts.GuaranteedFit = true;
  URSAResult R = runURSA(buildDAG(figure2Trace()), TightM, Opts);
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_TRUE(R.FallbackUsed);
  EXPECT_TRUE(R.WithinLimits);
  ASSERT_EQ(R.FinalRequired.size(), 2u);
  EXPECT_LE(R.FinalRequired[0], 2u);
  EXPECT_LE(R.FinalRequired[1], 3u);
}

TEST(Guardrails, FallbackOutputStillComputesTheRightAnswer) {
  URSAOptions Opts;
  Opts.MaxTotalRounds = 0;
  Opts.GuaranteedFit = true;
  Opts.Verify = VerifyLevel::Full; // includes semantic equivalence
  MachineModel M = MachineModel::homogeneous(2, 4);
  for (auto &[Name, T] : kernelSuite()) {
    URSACompileResult R = compileURSA(T, M, Opts);
    ASSERT_TRUE(R.Compile.Ok) << Name << ": " << R.Compile.Error;
    EXPECT_TRUE(R.FallbackUsed || R.AllocWithinLimits) << Name;
  }
}

TEST(Guardrails, FarDeadlineChangesNothing) {
  // A deadline only cancels: a run that finishes before it compiles to
  // exactly what a run without one does, at every width and in the
  // portfolio.
  for (unsigned Mode = 0; Mode != 3; ++Mode) {
    URSAOptions Plain;
    Plain.GuaranteedFit = true;
    Plain.BeamWidth = Mode == 1 ? 2 : 1;
    Plain.Portfolio = Mode == 2;
    URSAOptions Timed = Plain;
    Timed.Deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
    for (auto &[Name, T] : kernelSuite()) {
      if (Name != "figure2" && Name != "dot8" && Name != "scan12")
        continue;
      URSACompileResult A = compileURSA(T, TightM, Plain);
      URSACompileResult B = compileURSA(T, TightM, Timed);
      ASSERT_TRUE(A.Compile.Ok) << Name << ": " << A.Compile.Error;
      ASSERT_TRUE(B.Compile.Ok) << Name << ": " << B.Compile.Error;
      EXPECT_EQ(A.Compile.Prog->str(), B.Compile.Prog->str()) << Name;
      EXPECT_EQ(A.AllocRounds, B.AllocRounds) << Name;
      EXPECT_EQ(A.FinalRequired, B.FinalRequired) << Name;
      EXPECT_EQ(A.AllocStopReasons, B.AllocStopReasons) << Name;
      EXPECT_EQ(A.FallbackUsed, B.FallbackUsed) << Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Checked entry point
//===----------------------------------------------------------------------===//

TEST(CheckedCompile, GoodTraceRoundTrips) {
  StatusOr<URSACompileResult> R =
      compileURSAChecked(figure2Trace(), MachineModel::homogeneous(4, 8));
  ASSERT_TRUE(R.isOk()) << R.status().str();
  EXPECT_TRUE(R->Compile.Ok);
  EXPECT_TRUE(R->Compile.Prog.has_value());
}

TEST(CheckedCompile, StructurallyImpossibleMachineYieldsStatus) {
  // One register cannot hold two distinct operands of a single add.
  StatusOr<URSACompileResult> R =
      compileURSAChecked(figure2Trace(), MachineModel::homogeneous(1, 1));
  ASSERT_FALSE(R.isOk());
  EXPECT_FALSE(R.status().message().empty());
}

TEST(CheckedCompile, FaultyPipelineYieldsStatusWithDiags) {
  FaultInjector FI(FaultKind::CycleEdge, 5, 1);
  URSAOptions Opts;
  Opts.Faults = &FI;
  StatusOr<URSACompileResult> R =
      compileURSAChecked(figure2Trace(), TightM, Opts);
  ASSERT_FALSE(R.isOk());
  EXPECT_FALSE(R.status().diags().empty());
}
