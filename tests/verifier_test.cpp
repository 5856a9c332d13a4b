//===- tests/verifier_test.cpp - Pipeline verifier unit tests -------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The phase-boundary verifier must accept everything the real pipeline
// produces and reject every fault class the FaultInjector can plant
// (cycle, dangling edge, broken chains, over-capacity cycles, live-range
// conflicts, semantic divergence). Status/StatusOr plumbing and the
// fallible parser entry points ride along.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFGParser.h"
#include "graph/DAGBuilder.h"
#include "ir/Parser.h"
#include "sched/ListScheduler.h"
#include "sched/RegAssign.h"
#include "ursa/Compiler.h"
#include "ursa/FaultInjector.h"
#include "ursa/PipelineVerifier.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ursa;

namespace {

bool mentions(const Status &St, const std::string &Needle) {
  return St.str().find(Needle) != std::string::npos;
}

} // namespace

//===----------------------------------------------------------------------===//
// Status / StatusOr plumbing
//===----------------------------------------------------------------------===//

TEST(Status, OkAndError) {
  Status Ok = Status::ok();
  EXPECT_TRUE(Ok.isOk());
  EXPECT_EQ(Ok.message(), "ok");

  Status E = Status::error("parse", "boom");
  EXPECT_FALSE(E.isOk());
  EXPECT_EQ(E.message(), "boom");
  EXPECT_NE(E.str().find("error [parse]: boom"), std::string::npos);
}

TEST(Status, WarningsDoNotFail) {
  Status S;
  S.add({Severity::Warning, "allocate", "heads up"});
  S.add({Severity::Note, "allocate", "fyi"});
  EXPECT_TRUE(S.isOk());
  EXPECT_EQ(S.diags().size(), 2u);

  Status E = Status::error("x", "y");
  S.merge(E);
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.diags().size(), 3u);
}

TEST(Status, StatusOrCarriesValueOrStatus) {
  StatusOr<int> Good(42);
  ASSERT_TRUE(Good.isOk());
  EXPECT_EQ(*Good, 42);

  StatusOr<int> Bad(Status::error("p", "no"));
  ASSERT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.status().message(), "no");
}

TEST(Verifier, ParseVerifyLevel) {
  EXPECT_EQ(parseVerifyLevel(nullptr), VerifyLevel::None);
  EXPECT_EQ(parseVerifyLevel("off"), VerifyLevel::None);
  EXPECT_EQ(parseVerifyLevel("basic"), VerifyLevel::Basic);
  EXPECT_EQ(parseVerifyLevel("1"), VerifyLevel::Basic);
  EXPECT_EQ(parseVerifyLevel("full"), VerifyLevel::Full);
  EXPECT_EQ(parseVerifyLevel("2"), VerifyLevel::Full);
  EXPECT_EQ(parseVerifyLevel("garbage"), VerifyLevel::None);
}

//===----------------------------------------------------------------------===//
// Fallible parser entry points
//===----------------------------------------------------------------------===//

TEST(ParserStatus, GoodTrace) {
  StatusOr<Trace> R = parseTraceStatus("x = load a\nstore b, x\n", "t");
  ASSERT_TRUE(R.isOk());
  EXPECT_EQ(R->size(), 2u);
}

TEST(ParserStatus, BadTraceReturnsDiagnosticNotAbort) {
  StatusOr<Trace> R = parseTraceStatus("x = frobnicate a\n", "t");
  ASSERT_FALSE(R.isOk());
  EXPECT_NE(R.status().message().find("line 1"), std::string::npos);
}

TEST(ParserStatus, BadCFGReturnsDiagnosticNotAbort) {
  StatusOr<CFGFunction> R = parseCFGStatus("func f {\nblock a:\n  jmp b\n}\n");
  ASSERT_FALSE(R.isOk());
  EXPECT_FALSE(R.status().message().empty());
}

TEST(ParserStatus, GoodCFG) {
  StatusOr<CFGFunction> R =
      parseCFGStatus("func f {\nblock entry:\n  ret\n}\n");
  EXPECT_TRUE(R.isOk());
}

//===----------------------------------------------------------------------===//
// DAG structure
//===----------------------------------------------------------------------===//

TEST(Verifier, CleanPipelineStatesPass) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  for (auto &[Name, T] : kernelSuite()) {
    DependenceDAG D = buildDAG(T);
    EXPECT_TRUE(verifyDAGStructure(D).isOk()) << Name;

    DAGAnalysis A(D);
    HammockForest HF(D, A);
    std::vector<Measurement> Meas = measureAll(D, A, HF, M);
    EXPECT_TRUE(verifyMeasurements(Meas).isOk()) << Name;

    Schedule S = listSchedule(D, M);
    RegAssignment RA = assignRegisters(D, S, M);
    // Pressure-heavy kernels legitimately fail one-shot assignment (the
    // pipeline spills and retries); the verifier's contract only covers
    // successful assignments.
    if (RA.Ok) {
      EXPECT_TRUE(verifyAssignment(D, S, RA, M).isOk()) << Name;
    }
  }
}

TEST(Verifier, CatchesInjectedCycle) {
  DependenceDAG D = buildDAG(figure2Trace());
  RNG Rng(7);
  ASSERT_TRUE(FaultInjector::injectCycle(D, Rng));
  Status St = verifyDAGStructure(D);
  ASSERT_FALSE(St.isOk());
  EXPECT_TRUE(mentions(St, "cycle")) << St.str();
}

TEST(Verifier, CatchesDanglingEdge) {
  DependenceDAG D = buildDAG(figure2Trace());
  RNG Rng(7);
  ASSERT_TRUE(FaultInjector::injectDanglingEdge(D, Rng));
  Status St = verifyDAGStructure(D);
  ASSERT_FALSE(St.isOk());
  EXPECT_TRUE(mentions(St, "dangling")) << St.str();
}

TEST(Verifier, CatchesMissingDefUseEdge) {
  Trace T = figure2Trace();
  DependenceDAG D = buildDAG(T);
  // Remove one def->use data edge, the way a buggy spill rewiring would.
  bool Removed = false;
  std::vector<int> DefIdx(T.numVRegs(), -1);
  for (unsigned Idx = 0; Idx != T.size() && !Removed; ++Idx)
    if (T.instr(Idx).dest() >= 0)
      DefIdx[T.instr(Idx).dest()] = int(Idx);
  for (unsigned Idx = 0; Idx != T.size() && !Removed; ++Idx) {
    const Instruction &I = T.instr(Idx);
    for (unsigned Op = 0; Op != I.numOperands() && !Removed; ++Op) {
      int Def = DefIdx[I.operand(Op)];
      if (Def < 0)
        continue;
      unsigned From = DependenceDAG::nodeOf(unsigned(Def));
      unsigned To = DependenceDAG::nodeOf(Idx);
      if (D.hasEdge(From, To))
        Removed = D.removeEdge(From, To);
    }
  }
  ASSERT_TRUE(Removed);
  Status St = verifyDAGStructure(D);
  ASSERT_FALSE(St.isOk());
  EXPECT_TRUE(mentions(St, "def->use")) << St.str();
}

//===----------------------------------------------------------------------===//
// Chain decompositions
//===----------------------------------------------------------------------===//

TEST(Verifier, CatchesWidthMismatch) {
  DependenceDAG D = buildDAG(figure2Trace());
  DAGAnalysis A(D);
  HammockForest HF(D, A);
  MachineModel M = MachineModel::homogeneous(4, 8);
  std::vector<Measurement> Meas = measureAll(D, A, HF, M);
  ASSERT_FALSE(Meas.empty());
  Meas.back().MaxRequired += 1; // lie about the requirement
  Status St = verifyMeasurements(Meas);
  ASSERT_FALSE(St.isOk());
  EXPECT_TRUE(mentions(St, "width")) << St.str();
}

TEST(Verifier, CatchesBrokenChainPartition) {
  DependenceDAG D = buildDAG(figure2Trace());
  DAGAnalysis A(D);
  HammockForest HF(D, A);
  MachineModel M = MachineModel::homogeneous(4, 8);
  std::vector<Measurement> Meas = measureAll(D, A, HF, M);
  // Swap the heads of two chains: members stop being related and/or
  // ChainOf disagrees.
  for (Measurement &Ms : Meas) {
    ChainDecomposition &CD = Ms.Chains;
    if (CD.Chains.size() >= 2 && !CD.Chains[0].empty() &&
        !CD.Chains[1].empty()) {
      std::swap(CD.Chains[0].front(), CD.Chains[1].front());
      EXPECT_FALSE(verifyMeasurement(Ms).isOk()) << Ms.Res.describe();
      return;
    }
  }
  GTEST_SKIP() << "no resource with two non-trivial chains";
}

//===----------------------------------------------------------------------===//
// Assignment phase
//===----------------------------------------------------------------------===//

TEST(Verifier, CatchesOverCapacityCycle) {
  // Three independent loads on a 2-wide machine: force the third into
  // cycle 0. No dependence is violated (moving a rootless op earlier only
  // helps its successors), so the only error is FU over-subscription.
  Trace T = parseTraceOrDie("a = ldi 1\n"
                            "b = ldi 2\n"
                            "c = ldi 3\n"
                            "store x, a\n"
                            "store y, b\n"
                            "store z, c\n");
  MachineModel M = MachineModel::homogeneous(2, 8);
  DependenceDAG D = buildDAG(T);
  Schedule S = listSchedule(D, M);
  RegAssignment RA = assignRegisters(D, S, M);
  ASSERT_TRUE(RA.Ok);
  ASSERT_TRUE(verifyAssignment(D, S, RA, M).isOk());

  int Moved = -1;
  for (unsigned Idx = 0; Idx != 3; ++Idx) {
    unsigned N = DependenceDAG::nodeOf(Idx);
    if (S.CycleOf[N] > 0) {
      unsigned From = unsigned(S.CycleOf[N]);
      auto &L = S.Cycles[From];
      L.erase(std::find(L.begin(), L.end(), N));
      S.Cycles[0].push_back(N);
      S.CycleOf[N] = 0;
      Moved = int(N);
      break;
    }
  }
  ASSERT_GE(Moved, 0) << "scheduler packed all three loads into one cycle?";
  Status St = verifyAssignment(D, S, RA, M);
  ASSERT_FALSE(St.isOk());
  EXPECT_TRUE(mentions(St, "over-subscribes")) << St.str();
}

TEST(Verifier, CatchesCorruptedSchedule) {
  DependenceDAG D = buildDAG(figure2Trace());
  MachineModel M = MachineModel::homogeneous(2, 8);
  Schedule S = listSchedule(D, M);
  RegAssignment RA = assignRegisters(D, S, M);
  ASSERT_TRUE(RA.Ok);
  ASSERT_TRUE(verifyAssignment(D, S, RA, M).isOk());
  RNG Rng(3);
  FaultInjector::corruptSchedule(S, Rng);
  EXPECT_FALSE(verifyAssignment(D, S, RA, M).isOk());
}

TEST(Verifier, CatchesLiveRangeConflict) {
  DependenceDAG D = buildDAG(figure2Trace());
  MachineModel M = MachineModel::homogeneous(4, 8);
  Schedule S = listSchedule(D, M);
  RegAssignment RA = assignRegisters(D, S, M);
  ASSERT_TRUE(RA.Ok);
  std::vector<int> Before = RA.PhysOf;
  FaultInjector::corruptAssignment(D, S, RA);
  ASSERT_NE(Before, RA.PhysOf) << "no overlapping pair to corrupt?";
  Status St = verifyAssignment(D, S, RA, M);
  ASSERT_FALSE(St.isOk());
  EXPECT_TRUE(mentions(St, "conflict")) << St.str();
}

//===----------------------------------------------------------------------===//
// Semantics and fingerprints
//===----------------------------------------------------------------------===//

TEST(Verifier, SemanticEquivalenceAcceptsHonestCompile) {
  MachineModel M = MachineModel::homogeneous(2, 4);
  for (auto &[Name, T] : kernelSuite()) {
    URSACompileResult R = compileURSA(T, M);
    ASSERT_TRUE(R.Compile.Ok) << Name;
    EXPECT_TRUE(verifySemanticEquivalence(T, *R.Compile.Prog).isOk()) << Name;
  }
}

TEST(Verifier, SemanticEquivalenceRejectsWrongProgram) {
  MachineModel M = MachineModel::homogeneous(2, 4);
  Trace Want = parseTraceOrDie("x = ldi 1\nstore out, x\n");
  Trace Other = parseTraceOrDie("x = ldi 2\nstore out, x\n");
  URSACompileResult R = compileURSA(Other, M);
  ASSERT_TRUE(R.Compile.Ok);
  Status St = verifySemanticEquivalence(Want, *R.Compile.Prog);
  ASSERT_FALSE(St.isOk());
  EXPECT_TRUE(mentions(St, "diverges")) << St.str();
}

TEST(Verifier, FingerprintTracksDAGChanges) {
  DependenceDAG D1 = buildDAG(figure2Trace());
  DependenceDAG D2 = buildDAG(figure2Trace());
  EXPECT_EQ(dagFingerprint(D1), dagFingerprint(D2));
  RNG Rng(11);
  ASSERT_TRUE(FaultInjector::injectCycle(D2, Rng));
  EXPECT_NE(dagFingerprint(D1), dagFingerprint(D2));
}
