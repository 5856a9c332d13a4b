//===- tests/sched_test.cpp - Scheduler, assignment, pipelines ------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "graph/Analysis.h"
#include "graph/DAGBuilder.h"
#include "ir/Parser.h"
#include "ir/Interpreter.h"
#include "ir/Verifier.h"
#include "sched/GraphColoring.h"
#include "sched/ListScheduler.h"
#include "sched/Pipelines.h"
#include "sched/RegAssign.h"
#include "ursa/PipelineVerifier.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

using namespace ursa;

namespace {

/// Checks that a schedule obeys dependences (successor issues only after
/// predecessor completion) and FU capacity.
void checkScheduleValid(const DependenceDAG &D, const Schedule &S,
                        const MachineModel &M) {
  for (unsigned N = 2; N != D.size(); ++N) {
    ASSERT_GE(S.CycleOf[N], 0) << "unscheduled node";
    for (const auto &[Succ, Kind] : D.succs(N)) {
      if (DependenceDAG::isVirtual(Succ))
        continue;
      // Data needs the result (latency); sequence needs ordering only
      // (the unit's occupancy).
      unsigned Wait = Kind == EdgeKind::Data
                          ? M.latency(D.instrAt(N).fuKind())
                          : M.occupancy(D.instrAt(N).fuKind());
      EXPECT_GE(S.CycleOf[Succ], S.CycleOf[N] + int(Wait))
          << "dependence violated";
    }
  }
  // Per-cycle capacity, accounting for multi-cycle occupancy.
  for (unsigned C = 0; C != S.Cycles.size(); ++C) {
    unsigned PerClass[4] = {0, 0, 0, 0};
    for (unsigned N = 2; N != D.size(); ++N) {
      unsigned Lat = M.latency(D.instrAt(N).fuKind());
      if (S.CycleOf[N] >= 0 && unsigned(S.CycleOf[N]) <= C &&
          C < unsigned(S.CycleOf[N]) + Lat) {
        unsigned Class =
            M.isHomogeneous() ? 0u : unsigned(D.instrAt(N).fuKind());
        ++PerClass[Class];
      }
    }
    if (M.isHomogeneous()) {
      EXPECT_LE(PerClass[0], M.numFUs(FUKind::Universal));
    } else {
      EXPECT_LE(PerClass[unsigned(FUKind::IntALU)], M.numFUs(FUKind::IntALU));
      EXPECT_LE(PerClass[unsigned(FUKind::FloatALU)],
                M.numFUs(FUKind::FloatALU));
      EXPECT_LE(PerClass[unsigned(FUKind::Memory)], M.numFUs(FUKind::Memory));
    }
  }
}

} // namespace

TEST(ListScheduler, RespectsDependencesAndCapacity) {
  MachineModel M = MachineModel::homogeneous(2, 64);
  for (auto &[Name, T] : kernelSuite()) {
    (void)Name;
    DependenceDAG D = buildDAG(T);
    Schedule S = listSchedule(D, M);
    checkScheduleValid(D, S, M);
  }
}

TEST(ListScheduler, WidthOneIsSequential) {
  MachineModel M = MachineModel::homogeneous(1, 64);
  DependenceDAG D = buildDAG(figure2Trace());
  Schedule S = listSchedule(D, M);
  EXPECT_EQ(S.Length, 11u) << "one FU executes one op per cycle";
}

TEST(ListScheduler, AmpleFUsReachCriticalPath) {
  MachineModel M = MachineModel::homogeneous(16, 64);
  DependenceDAG D = buildDAG(figure2Trace());
  DAGAnalysis A(D);
  Schedule S = listSchedule(D, M);
  // Unit latency: length equals the number of instruction levels, which
  // is criticalPathLength() - 1 (edges include entry and exit hops).
  EXPECT_EQ(S.Length, A.criticalPathLength() - 1);
}

TEST(ListScheduler, NonPipelinedLatencyOccupiesUnit) {
  MachineModel M = MachineModel::homogeneous(1, 64).withLatencies(3, 3, 3);
  Trace T = parseTraceOrDie("a = load x\nb = neg a\n");
  DependenceDAG D = buildDAG(T);
  Schedule S = listSchedule(D, M);
  EXPECT_EQ(S.CycleOf[DependenceDAG::nodeOf(0)], 0);
  EXPECT_EQ(S.CycleOf[DependenceDAG::nodeOf(1)], 3) << "waits for completion";
  checkScheduleValid(D, S, M);
}

TEST(ListScheduler, ClassedMachineSeparatesPools) {
  MachineModel M = MachineModel::classed(1, 1, 1, 32, 32);
  DependenceDAG D = buildDAG(mixedClassTrace(2));
  Schedule S = listSchedule(D, M);
  checkScheduleValid(D, S, M);
}

TEST(RegAssign, SucceedsWithAmpleRegisters) {
  MachineModel M = MachineModel::homogeneous(4, 32);
  DependenceDAG D = buildDAG(figure2Trace());
  Schedule S = listSchedule(D, M);
  RegAssignment RA = assignRegisters(D, S, M);
  ASSERT_TRUE(RA.Ok);
  EXPECT_LE(RA.PeakLive, 6u);
  // Values with overlapping lifetimes get different registers.
  std::vector<std::vector<unsigned>> Uses = computeUses(D);
  const Trace &T = D.trace();
  for (unsigned I = 0; I != T.size(); ++I) {
    for (unsigned J = I + 1; J != T.size(); ++J) {
      int VI = T.instr(I).dest(), VJ = T.instr(J).dest();
      if (VI < 0 || VJ < 0)
        continue;
      // Overlap test on the schedule.
      auto Range = [&](unsigned Idx, int V) {
        (void)V;
        unsigned N = DependenceDAG::nodeOf(Idx);
        int Lo = S.CycleOf[N], Hi = Lo;
        for (unsigned U : Uses[N])
          Hi = std::max(Hi, S.CycleOf[U]);
        return std::pair<int, int>(Lo, Hi);
      };
      auto [L1, H1] = Range(I, VI);
      auto [L2, H2] = Range(J, VJ);
      if (L1 < H2 && L2 < H1) { // strict interior overlap
        EXPECT_NE(RA.PhysOf[VI], RA.PhysOf[VJ]);
      }
    }
  }
}

TEST(RegAssign, ReportsConflictWhenStarved) {
  MachineModel M = MachineModel::homogeneous(4, 2);
  DependenceDAG D = buildDAG(figure2Trace());
  Schedule S = listSchedule(D, M);
  RegAssignment RA = assignRegisters(D, S, M);
  EXPECT_FALSE(RA.Ok);
  EXPECT_GE(RA.ConflictVReg, 0);
}

TEST(RegAssign, DeadDefStillOccupiesItsIssueCycle) {
  // Regression: a value that is never used has End == Start, but its
  // register is still written in the issue cycle. The expiry scan must
  // not hand that register to another value defined in the same cycle,
  // or the VLIW word ends up with two writes to one register. Surfaced
  // by the seed-11 add chain on 2fu/3reg (tests/corpus/).
  MachineModel M = MachineModel::homogeneous(2, 2);
  Trace T = parseTraceOrDie("a = load x\n"
                            "b = neg a\n" // dead: no uses
                            "c = neg a\n"
                            "store o, c\n");
  DependenceDAG D = buildDAG(T);
  Schedule S = listSchedule(D, M);
  RegAssignment RA = assignRegisters(D, S, M);
  ASSERT_TRUE(RA.Ok);
  Status St = verifyAssignment(D, S, RA, M);
  EXPECT_TRUE(St.isOk()) << St.str();
  int B = T.instr(1).dest(), C = T.instr(2).dest();
  if (S.CycleOf[DependenceDAG::nodeOf(1)] ==
      S.CycleOf[DependenceDAG::nodeOf(2)]) {
    EXPECT_NE(RA.PhysOf[B], RA.PhysOf[C])
        << "same-cycle defs share a physical register";
  }
}

TEST(RegAssign, SpillValueInTraceRewrites) {
  Trace T = parseTraceOrDie("a = load x\n"
                            "b = neg a\n"
                            "c = not a\n"
                            "d = add b, c\n"
                            "store y, d\n");
  unsigned Added = spillValueInTrace(T, 0); // spill 'a'
  EXPECT_EQ(Added, 3u); // one store, two reloads
  EXPECT_TRUE(verifyTrace(T).empty());
  // Semantics preserved.
  MemoryState In;
  In["x"] = Value::ofInt(5);
  ExecResult R = interpret(T, In);
  EXPECT_EQ(R.Memory["y"].I, -5 + ~5);
}

TEST(RegAssign, VictimPreferenceSkipsReloads) {
  Trace T = parseTraceOrDie("a = load x\nb = neg a\nstore y, b\n");
  spillValueInTrace(T, 0);
  DependenceDAG D = buildDAG(T);
  Schedule S = sequentialSchedule(D);
  // Conflict on the reload's value: the victim must not be the reload.
  const Trace &T2 = D.trace();
  int ReloadVReg = -1;
  for (const Instruction &I : T2.instructions())
    if (I.opcode() == Opcode::SpillLoad)
      ReloadVReg = I.dest();
  ASSERT_GE(ReloadVReg, 0);
  int Victim = pickSpillVictim(D, S, ReloadVReg);
  EXPECT_NE(Victim, ReloadVReg);
}

TEST(Postpass, SequentialScheduleIsTraceOrder) {
  DependenceDAG D = buildDAG(figure2Trace());
  Schedule S = sequentialSchedule(D);
  EXPECT_EQ(S.Length, 11u);
  for (unsigned I = 0; I != 11; ++I)
    EXPECT_EQ(S.CycleOf[DependenceDAG::nodeOf(I)], int(I));
}

TEST(Postpass, ReuseEdgesSerializeRegisterSharing) {
  // Figure 2's sequential live ranges peak at exactly 5, so a 5-register
  // file forces register sharing and therefore reuse edges.
  MachineModel M = MachineModel::homogeneous(4, 5);
  DependenceDAG D = buildDAG(figure2Trace());
  Schedule Seq = sequentialSchedule(D);
  RegAssignment RA = assignRegisters(D, Seq, M);
  ASSERT_TRUE(RA.Ok);
  unsigned Before = D.numEdges();
  unsigned Added = addReuseEdges(D, RA);
  EXPECT_GT(Added, 0u);
  EXPECT_EQ(D.numEdges(), Before + Added);
  DAGAnalysis A(D); // still acyclic
  EXPECT_EQ(A.topoOrder().size(), D.size());
}

TEST(Pipelines, AllSucceedOnKernels) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  for (auto &[Name, T] : kernelSuite()) {
    for (auto *Compile :
         {&compilePrepass, &compilePostpass, &compileIntegrated}) {
      CompileResult R = (*Compile)(T, M);
      ASSERT_TRUE(R.Ok) << Name << ": " << R.Error;
      EXPECT_TRUE(R.Prog.has_value());
      EXPECT_TRUE(R.Prog->validate().empty());
      EXPECT_GT(R.Cycles, 0u);
    }
  }
}

TEST(Pipelines, StarvedRegistersForceSpills) {
  MachineModel M = MachineModel::homogeneous(4, 3);
  CompileResult R = compilePrepass(dotProductTrace(8), M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.SpillOps, 0u);
  EXPECT_GT(R.AssignSpillRounds, 0u);
}

TEST(Pipelines, PostpassAddsDependencesPrepassDoesNot) {
  // The paper's core observation: allocation first introduces register
  // reuse dependences that shackle the scheduler.
  MachineModel M = MachineModel::homogeneous(4, 4);
  Trace T = dotProductTrace(8);
  CompileResult Pre = compilePrepass(T, M);
  CompileResult Post = compilePostpass(T, M);
  ASSERT_TRUE(Pre.Ok && Post.Ok);
  EXPECT_GT(Post.SeqEdgesAdded, 0u);
  EXPECT_GE(Post.Cycles, Pre.Cycles > 2 ? Pre.Cycles - 2 : 1u)
      << "sanity: postpass should not magically win big";
}

TEST(Pipelines, IntegratedTracksPressure) {
  MachineModel M = MachineModel::homogeneous(4, 5);
  Trace T = dotProductTrace(12);
  CompileResult Pre = compilePrepass(T, M);
  CompileResult Int = compileIntegrated(T, M);
  ASSERT_TRUE(Pre.Ok && Int.Ok);
  // The pressure-aware scheduler should not need more spills than the
  // oblivious one.
  EXPECT_LE(Int.SpillOps, Pre.SpillOps + 2);
}
