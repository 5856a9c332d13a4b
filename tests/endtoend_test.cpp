//===- tests/endtoend_test.cpp - Differential compilation tests -----------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strongest property in the suite: every pipeline (URSA and the
/// three baselines), on every machine and every program tried, must emit
/// a VLIW program whose simulated observable state matches the reference
/// interpreter exactly — memory bit-for-bit and branch directions in
/// source order. Parameterized over machine shapes.
///
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"
#include "sched/Pipelines.h"
#include "ursa/Compiler.h"
#include "vliw/Simulator.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

using namespace ursa;

namespace {

struct MachineCase {
  const char *Name;
  unsigned Fus, Regs;
};

/// Prints a case by value ("wide 8x16") so test names stay stable.
void PrintTo(const MachineCase &C, std::ostream *OS) {
  *OS << C.Name << ' ' << C.Fus << 'x' << C.Regs;
}

class DifferentialTest : public ::testing::TestWithParam<MachineCase> {};

void expectMatch(const Trace &T, const MachineModel &M,
                 const CompileResult &R, const std::string &Tag) {
  ASSERT_TRUE(R.Ok) << Tag << ": " << R.Error;
  ASSERT_TRUE(R.Prog.has_value()) << Tag;
  RNG InputRng(0xABCDEF ^ T.size());
  MemoryState In = randomInputs(T, InputRng);
  ExecResult Want = interpret(T, In);
  SimResult Got = simulate(*R.Prog, In);
  ASSERT_TRUE(Got.Ok) << Tag << ": " << Got.Error;
  EXPECT_TRUE(Got.Exec == Want) << Tag << ": observable state diverged";
}

} // namespace

TEST_P(DifferentialTest, KernelsAllPipelines) {
  MachineCase MC = GetParam();
  MachineModel M = MachineModel::homogeneous(MC.Fus, MC.Regs);
  for (auto &[Name, T] : kernelSuite()) {
    expectMatch(T, M, compilePrepass(T, M), Name + std::string("/prepass"));
    expectMatch(T, M, compilePostpass(T, M), Name + std::string("/postpass"));
    expectMatch(T, M, compileIntegrated(T, M),
                Name + std::string("/integrated"));
    expectMatch(T, M, compileURSA(T, M).Compile,
                Name + std::string("/ursa"));
  }
}

TEST_P(DifferentialTest, RandomTracesAllPipelines) {
  MachineCase MC = GetParam();
  MachineModel M = MachineModel::homogeneous(MC.Fus, MC.Regs);
  GenOptions Opts;
  Opts.NumInstrs = 36;
  Opts.Window = 10;
  Opts.MemOpProb = 0.1;
  Opts.BranchProb = 0.08;
  for (uint64_t Seed = 1; Seed != 13; ++Seed) {
    Opts.Seed = Seed * 977 + MC.Fus;
    Trace T = generateTrace(Opts);
    std::string Tag = "seed " + std::to_string(Opts.Seed);
    expectMatch(T, M, compilePrepass(T, M), Tag + "/prepass");
    expectMatch(T, M, compilePostpass(T, M), Tag + "/postpass");
    expectMatch(T, M, compileIntegrated(T, M), Tag + "/integrated");
    expectMatch(T, M, compileURSA(T, M).Compile, Tag + "/ursa");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, DifferentialTest,
    ::testing::Values(MachineCase{"wide", 8, 16}, MachineCase{"mid", 4, 8},
                      MachineCase{"narrow", 2, 6},
                      MachineCase{"regstarved", 4, 4},
                      MachineCase{"fustarved", 1, 12}),
    [](const ::testing::TestParamInfo<MachineCase> &I) {
      return I.param.Name;
    });

TEST(EndToEnd, URSAWithLatencies) {
  MachineModel M = MachineModel::homogeneous(4, 8).withLatencies(1, 4, 2);
  for (auto &[Name, T] : kernelSuite()) {
    URSACompileResult R = compileURSA(T, M);
    ASSERT_TRUE(R.Compile.Ok) << Name;
    RNG InputRng(7);
    MemoryState In = randomInputs(T, InputRng);
    SimResult Got = simulate(*R.Compile.Prog, In);
    ASSERT_TRUE(Got.Ok) << Name << ": " << Got.Error;
    EXPECT_TRUE(Got.Exec == interpret(T, In)) << Name;
  }
}

TEST(EndToEnd, URSAClassedMachine) {
  MachineModel M = MachineModel::classed(2, 2, 2, 8, 6);
  for (Trace T : {mixedClassTrace(3), butterflyTrace(2)}) {
    URSACompileResult R = compileURSA(T, M);
    ASSERT_TRUE(R.Compile.Ok) << R.Compile.Error;
    RNG InputRng(11);
    MemoryState In = randomInputs(T, InputRng);
    SimResult Got = simulate(*R.Compile.Prog, In);
    ASSERT_TRUE(Got.Ok) << Got.Error;
    EXPECT_TRUE(Got.Exec == interpret(T, In));
  }
}

TEST(EndToEnd, URSAFitsAssignmentWithoutExtraSpillsWhenWithinLimits) {
  // When the allocation phase certifies the requirements, the assignment
  // phase should not need emergency spills.
  MachineModel M = MachineModel::homogeneous(4, 8);
  for (auto &[Name, T] : kernelSuite()) {
    URSACompileResult R = compileURSA(T, M);
    ASSERT_TRUE(R.Compile.Ok) << Name;
    if (R.AllocWithinLimits)
      EXPECT_EQ(R.Compile.AssignSpillRounds, 0u) << Name;
  }
}

TEST(EndToEnd, BranchyTracesPreserveBranchLog) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  GenOptions Opts;
  Opts.NumInstrs = 30;
  Opts.BranchProb = 0.3;
  for (uint64_t Seed = 50; Seed != 60; ++Seed) {
    Opts.Seed = Seed;
    Trace T = generateTrace(Opts);
    URSACompileResult R = compileURSA(T, M);
    ASSERT_TRUE(R.Compile.Ok);
    RNG InputRng(Seed);
    MemoryState In = randomInputs(T, InputRng);
    ExecResult Want = interpret(T, In);
    SimResult Got = simulate(*R.Compile.Prog, In);
    ASSERT_TRUE(Got.Ok) << Got.Error;
    EXPECT_EQ(Got.Exec.BranchLog, Want.BranchLog) << "seed " << Seed;
  }
}
