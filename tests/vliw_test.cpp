//===- tests/vliw_test.cpp - VLIW program and simulator -------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "vliw/Simulator.h"
#include "vliw/VLIWProgram.h"

#include <gtest/gtest.h>

using namespace ursa;

namespace {

/// Builds an op with physical registers.
VLIWOp op(Opcode O, int Dest, int A = -1, int B = -1) {
  Instruction I(O);
  I.setDomain(opcodeInfo(O).Dom);
  if (definesValue(O))
    I.setDest(Dest);
  if (numSrcs(O) >= 1)
    I.setOperand(0, A);
  if (numSrcs(O) >= 2)
    I.setOperand(1, B);
  return {I, 0};
}

VLIWOp ldi(int Dest, int64_t Imm) {
  VLIWOp V = op(Opcode::LoadImm, Dest);
  V.I.setIntImm(Imm);
  return V;
}

VLIWOp storeVar(int Sym, int Src) {
  Instruction I(Opcode::Store);
  I.setSymbol(Sym);
  I.setOperand(0, Src);
  return {I, 0};
}

} // namespace

TEST(VLIWProgram, ValidateCatchesOverSubscription) {
  MachineModel M = MachineModel::homogeneous(2, 8);
  VLIWProgram P(M, {}, 0);
  VLIWWord &W = P.newWord();
  W.Ops.push_back(ldi(0, 1));
  W.Ops.push_back(ldi(1, 2));
  EXPECT_TRUE(P.validate().empty());
  W.Ops.push_back(ldi(2, 3));
  EXPECT_FALSE(P.validate().empty());
}

TEST(VLIWProgram, ValidateCatchesBadRegister) {
  MachineModel M = MachineModel::homogeneous(2, 4);
  VLIWProgram P(M, {}, 0);
  P.newWord().Ops.push_back(ldi(7, 1)); // register 7 of 4
  EXPECT_FALSE(P.validate().empty());
}

TEST(VLIWProgram, UtilizationCountsSlots) {
  MachineModel M = MachineModel::homogeneous(2, 8);
  VLIWProgram P(M, {}, 0);
  P.newWord().Ops.push_back(ldi(0, 1));
  P.newWord(); // empty word
  EXPECT_DOUBLE_EQ(P.utilization(), 0.25);
  EXPECT_EQ(P.numOps(), 1u);
}

TEST(Simulator, ExecutesArithmetic) {
  MachineModel M = MachineModel::homogeneous(2, 8);
  VLIWProgram P(M, {"out"}, 0);
  P.newWord().Ops.push_back(ldi(0, 6));
  P.newWord().Ops.push_back(ldi(1, 7));
  P.newWord().Ops.push_back(op(Opcode::Mul, 2, 0, 1));
  P.newWord().Ops.push_back(storeVar(0, 2));
  SimResult R = simulate(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Exec.Memory["out"].I, 42);
}

TEST(Simulator, WordReadsHappenBeforeWrites) {
  // r0 = 1; then in one word: r0 = 2 || store old r0.
  MachineModel M = MachineModel::homogeneous(2, 8);
  VLIWProgram P(M, {"out"}, 0);
  P.newWord().Ops.push_back(ldi(0, 1));
  VLIWWord &W = P.newWord();
  W.Ops.push_back(ldi(0, 2));
  W.Ops.push_back(storeVar(0, 0));
  SimResult R = simulate(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Exec.Memory["out"].I, 1) << "store must read the old value";
}

TEST(Simulator, DetectsReadBeforeLatencyCommit) {
  MachineModel M = MachineModel::homogeneous(2, 8).withLatencies(3, 3, 3);
  VLIWProgram P(M, {"out"}, 0);
  P.newWord().Ops.push_back(ldi(0, 5));
  P.newWord().Ops.push_back(op(Opcode::Neg, 1, 0)); // too early: 1 < 3
  SimResult R = simulate(P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("before its write commits"), std::string::npos);
}

TEST(Simulator, LatencyRespectedExecutes) {
  MachineModel M = MachineModel::homogeneous(2, 8).withLatencies(3, 3, 3);
  VLIWProgram P(M, {"out"}, 0);
  P.newWord().Ops.push_back(ldi(0, 5));
  P.newWord();
  P.newWord();
  P.newWord().Ops.push_back(op(Opcode::Neg, 1, 0));
  for (int I = 0; I != 3; ++I)
    P.newWord();
  P.newWord().Ops.push_back(storeVar(0, 1));
  SimResult R = simulate(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Exec.Memory["out"].I, -5);
}

TEST(Simulator, DetectsDoubleWrite) {
  MachineModel M = MachineModel::homogeneous(2, 8);
  VLIWProgram P(M, {}, 0);
  VLIWWord &W = P.newWord();
  W.Ops.push_back(ldi(0, 1));
  W.Ops.push_back(ldi(0, 2));
  SimResult R = simulate(P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("two writes"), std::string::npos);
}

TEST(Simulator, DetectsConflictingStores) {
  MachineModel M = MachineModel::homogeneous(3, 8);
  VLIWProgram P(M, {"v"}, 0);
  P.newWord().Ops.push_back(ldi(0, 1));
  VLIWWord &W = P.newWord();
  W.Ops.push_back(storeVar(0, 0));
  W.Ops.push_back(storeVar(0, 0));
  SimResult R = simulate(P);
  EXPECT_FALSE(R.Ok);
}

TEST(Simulator, SpillRoundTrip) {
  MachineModel M = MachineModel::homogeneous(2, 2);
  VLIWProgram P(M, {"out"}, 1);
  P.newWord().Ops.push_back(ldi(0, 99));
  {
    Instruction St(Opcode::SpillStore);
    St.setOperand(0, 0);
    St.setSpillSlot(0);
    P.newWord().Ops.push_back({St, 0});
  }
  P.newWord().Ops.push_back(ldi(0, 1)); // clobber the register
  {
    Instruction Ld(Opcode::SpillLoad);
    Ld.setDest(1);
    Ld.setSpillSlot(0);
    P.newWord().Ops.push_back({Ld, 0});
  }
  P.newWord().Ops.push_back(storeVar(0, 1));
  SimResult R = simulate(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Exec.Memory["out"].I, 99);
}

TEST(Simulator, BranchLogInSourceOrder) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  VLIWProgram P(M, {}, 0);
  VLIWWord &W0 = P.newWord();
  W0.Ops.push_back(ldi(0, 1));
  W0.Ops.push_back(ldi(1, 0));
  // Branch ordinal 1 issues before ordinal 0 — log must still be source
  // ordered.
  {
    Instruction B(Opcode::Br);
    B.setOperand(0, 0);
    B.setIntImm(1);
    P.newWord().Ops.push_back({B, 0});
  }
  {
    Instruction B(Opcode::Br);
    B.setOperand(0, 1);
    B.setIntImm(0);
    P.newWord().Ops.push_back({B, 0});
  }
  SimResult R = simulate(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Exec.BranchLog.size(), 2u);
  EXPECT_EQ(R.Exec.BranchLog[0], 0);
  EXPECT_EQ(R.Exec.BranchLog[1], 1);
}

TEST(Simulator, TrailingWriteCommits) {
  MachineModel M = MachineModel::homogeneous(2, 8).withLatencies(4, 4, 4);
  VLIWProgram P(M, {}, 0);
  P.newWord().Ops.push_back(ldi(0, 5));
  // Program ends before the write's latency elapses; the value must still
  // land (no store to observe it here, but the run must succeed).
  SimResult R = simulate(P);
  EXPECT_TRUE(R.Ok) << R.Error;
}
