//===- tests/cfg_test.cpp - CFG front end and trace formation -------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFGCompiler.h"
#include "cfg/CFGParser.h"
#include "cfg/TraceFormation.h"
#include "ir/Verifier.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace ursa;

namespace {

/// A loop summing i = n..1 into acc, with a cold error-ish side block.
const char *LoopSource = R"(
func sum {
block entry:
  z = ldi 0
  store acc, z
  jmp loop
block loop:
  a  = load acc
  i  = load i
  a2 = add a, i
  k  = ldi 1
  i2 = sub i, k
  store acc, a2
  store i, i2
  c  = cmplt k, i2   # keep looping while 1 < i2
  br c ? loop:0.9 : cool
block cool:
  a3 = load acc
  t  = ldi 100
  c2 = cmplt t, a3   # overflow-ish check
  br c2 ? hot : exit
block hot:
  h = ldi -1
  store flag, h
  jmp exit
block exit:
  a4 = load acc
  i3 = load i
  f  = add a4, i3
  store result, f
  ret
}
)";

MemoryState inputs(int64_t N) {
  MemoryState In;
  In["i"] = Value::ofInt(N);
  return In;
}

} // namespace

TEST(CFGParser, ParsesTheLoop) {
  CFGFunction F;
  std::string Err;
  ASSERT_TRUE(parseCFG(LoopSource, F, Err)) << Err;
  EXPECT_EQ(F.name(), "sum");
  ASSERT_EQ(F.numBlocks(), 5u);
  EXPECT_EQ(F.block(0).Name, "entry");
  EXPECT_EQ(F.blockByName("loop"), 1);
  EXPECT_EQ(F.block(1).Term.Kind, Terminator::CondBr);
  EXPECT_DOUBLE_EQ(F.block(1).Term.TakenProb, 0.9);
  EXPECT_EQ(F.block(4).Term.Kind, Terminator::Ret);
  EXPECT_TRUE(F.verify().empty());
}

TEST(CFGParser, RoundTripsThroughPrinter) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  CFGFunction F2;
  std::string Err;
  ASSERT_TRUE(parseCFG(F.str(), F2, Err)) << Err << "\n" << F.str();
  EXPECT_EQ(F.str(), F2.str());
}

TEST(CFGParser, Rejections) {
  CFGFunction F;
  std::string Err;
  EXPECT_FALSE(parseCFG("x = ldi 1\n", F, Err)); // no func header
  EXPECT_FALSE(parseCFG("func f {\n}\n", F, Err)); // no blocks
  EXPECT_FALSE(parseCFG("func f {\nblock a:\n  ret\nblock a:\n  ret\n}\n", F,
                        Err)); // duplicate block
  EXPECT_FALSE(parseCFG("func f {\nblock a:\n  jmp nowhere\n}\n", F, Err));
  EXPECT_FALSE(parseCFG("func f {\nblock a:\n  x = ldi 1\n}\n", F, Err))
      << "missing terminator must be rejected";
  EXPECT_FALSE(
      parseCFG("func f {\nblock a:\n  br q ? a : a\n}\n", F, Err))
      << "undefined branch condition";
  EXPECT_FALSE(parseCFG("func f {\nblock a:\n  ret\n  x = ldi 1\n}\n", F,
                        Err))
      << "code after terminator";
}

TEST(CFG, SuccessorsAndPredecessors) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  EXPECT_EQ(F.successors(0), std::vector<unsigned>{1u});
  std::vector<unsigned> LoopSuccs = F.successors(1);
  ASSERT_EQ(LoopSuccs.size(), 2u);
  // loop's preds: entry and itself.
  std::vector<unsigned> LoopPreds = F.predecessors(1);
  ASSERT_EQ(LoopPreds.size(), 2u);
  EXPECT_EQ(F.successors(4), std::vector<unsigned>{});
}

TEST(CFG, FrequencyEstimation) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  std::vector<double> Freq = estimateBlockFrequencies(F);
  EXPECT_DOUBLE_EQ(Freq[0], 1.0);
  // loop frequency = 1 / (1 - 0.9) = 10.
  EXPECT_NEAR(Freq[1], 10.0, 1e-6);
  // cool runs once per function execution.
  EXPECT_NEAR(Freq[2], 1.0, 1e-6);
  // exit: from cool (0.5 fall) + hot (0.5 taken -> jmp) = 1.
  EXPECT_NEAR(Freq[4], 1.0, 1e-6);
}

TEST(CFG, InterpreterRunsTheLoop) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  CFGExecResult R = interpretCFG(F, inputs(5));
  ASSERT_TRUE(R.Ok) << R.Error;
  // acc sums 5+4+3+2 (loop exits when i2 <= 1), result = acc + final i.
  EXPECT_EQ(R.Memory["acc"].I, 5 + 4 + 3 + 2);
  EXPECT_EQ(R.Memory["result"].I, 14 + 1);
  EXPECT_EQ(R.Path.front(), 0u);
  EXPECT_EQ(R.Path.back(), 4u);
}

TEST(CFG, InterpreterFuelsOutOnInfiniteLoop) {
  CFGFunction F = parseCFGOrDie("func spin {\nblock a:\n  jmp a\n}\n");
  CFGExecResult R = interpretCFG(F, {}, /*Fuel=*/50);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("fuel"), std::string::npos);
}

TEST(TraceFormation, CoversAllBlocksExactlyOnce) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  TraceSet TS = formTraces(F);
  std::vector<int> Seen(F.numBlocks(), 0);
  for (const FormedTrace &FT : TS.Traces)
    for (unsigned B : FT.Blocks)
      ++Seen[B];
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    EXPECT_EQ(Seen[B], 1) << "block " << B;
    EXPECT_GE(TS.TraceOf[B], 0);
  }
}

TEST(TraceFormation, TransfersLandOnHeads) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  TraceSet TS = formTraces(F);
  for (const FormedTrace &FT : TS.Traces) {
    for (const TraceExit &E : FT.SideExits)
      EXPECT_GE(TS.HeadTraceOf[E.TargetBlock], 0)
          << "side exit into the middle of a trace";
    if (FT.FallthroughBlock >= 0) {
      EXPECT_GE(TS.HeadTraceOf[unsigned(FT.FallthroughBlock)], 0);
    }
  }
  // Entry heads its trace.
  EXPECT_GE(TS.HeadTraceOf[0], 0);
}

TEST(TraceFormation, HotLoopSeedsItsOwnTrace) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  TraceSet TS = formTraces(F);
  // The loop block (freq 10) cannot be absorbed (two predecessors), so it
  // must head a trace.
  EXPECT_GE(TS.HeadTraceOf[1], 0);
}

TEST(TraceFormation, FormedTracesVerify) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  for (const FormedTrace &FT : formTraces(F).Traces) {
    EXPECT_TRUE(verifyTrace(FT.Code).empty()) << FT.Code.str();
    EXPECT_FALSE(FT.Blocks.empty());
  }
}

TEST(CFGCompiler, DifferentialAgainstInterpreter) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  MachineModel M = MachineModel::homogeneous(2, 5);
  for (auto *Compile : {&compilePrepass, &compilePostpass,
                        &compileIntegrated}) {
    CompiledCFG C = compileCFG(F, M, *Compile);
    ASSERT_TRUE(C.Ok) << C.Error;
    for (int64_t N : {0, 1, 2, 7, 30}) {
      CFGExecResult Want = interpretCFG(F, inputs(N));
      CFGExecResult Got = runCompiledCFG(F, C, inputs(N));
      ASSERT_TRUE(Want.Ok && Got.Ok) << Got.Error;
      EXPECT_EQ(Got.Memory, Want.Memory) << "n=" << N;
      EXPECT_EQ(Got.Path, Want.Path) << "n=" << N;
    }
  }
}

TEST(CFGCompiler, URSADifferentialAcrossMachines) {
  CFGFunction F = parseCFGOrDie(LoopSource);
  for (auto [Fus, Regs] :
       {std::pair<unsigned, unsigned>{1, 4}, {2, 4}, {4, 8}}) {
    MachineModel M = MachineModel::homogeneous(Fus, Regs);
    CompiledCFG C = compileCFGWithURSA(F, M);
    ASSERT_TRUE(C.Ok) << C.Error;
    for (int64_t N : {0, 3, 12}) {
      CFGExecResult Want = interpretCFG(F, inputs(N));
      CFGExecResult Got = runCompiledCFG(F, C, inputs(N));
      ASSERT_TRUE(Got.Ok) << Got.Error;
      EXPECT_EQ(Got.Memory, Want.Memory)
          << M.describe() << " n=" << N;
      EXPECT_EQ(Got.Path, Want.Path) << M.describe() << " n=" << N;
    }
  }
}

TEST(CFGCompiler, ColdPathTaken) {
  // Force the rarely-taken 'hot' block (acc > 100) and check the flag.
  CFGFunction F = parseCFGOrDie(LoopSource);
  MachineModel M = MachineModel::homogeneous(2, 6);
  CompiledCFG C = compileCFGWithURSA(F, M);
  ASSERT_TRUE(C.Ok) << C.Error;
  CFGExecResult Want = interpretCFG(F, inputs(20)); // sum ~ 209 > 100
  ASSERT_TRUE(Want.Ok);
  ASSERT_EQ(Want.Memory["flag"].I, -1);
  CFGExecResult Got = runCompiledCFG(F, C, inputs(20));
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Got.Memory, Want.Memory);
}

TEST(CFGCompiler, DiamondFunction) {
  const char *Src = R"(
func absdiff {
block entry:
  a = load a
  b = load b
  c = cmplt a, b
  br c ? less:0.3 : geq
block less:
  a1 = load a
  b1 = load b
  d1 = sub b1, a1
  store out, d1
  jmp done
block geq:
  a2 = load a
  b2 = load b
  d2 = sub a2, b2
  store out, d2
  jmp done
block done:
  ret
}
)";
  CFGFunction F = parseCFGOrDie(Src);
  MachineModel M = MachineModel::homogeneous(2, 4);
  CompiledCFG C = compileCFGWithURSA(F, M);
  ASSERT_TRUE(C.Ok) << C.Error;
  for (auto [A, B] : {std::pair<int64_t, int64_t>{3, 9}, {9, 3}, {4, 4}}) {
    MemoryState In;
    In["a"] = Value::ofInt(A);
    In["b"] = Value::ofInt(B);
    CFGExecResult Want = interpretCFG(F, In);
    CFGExecResult Got = runCompiledCFG(F, C, In);
    ASSERT_TRUE(Want.Ok && Got.Ok) << Got.Error;
    EXPECT_EQ(Got.Memory, Want.Memory);
    EXPECT_EQ(Want.Memory["out"].I, A > B ? A - B : B - A);
  }
}
