//===- sched/Pipelines.cpp - Baseline compilation pipelines ---------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sched/Pipelines.h"

#include "graph/Analysis.h"
#include "graph/DAGBuilder.h"
#include "obs/Stats.h"
#include "obs/Tracer.h"
#include "sched/GraphColoring.h"
#include "sched/RegAssign.h"

#include <algorithm>

using namespace ursa;

URSA_STAT(StatSchedRuns, "sched.finish_and_emit.runs",
          "assignment-phase (schedule + assign + emit) invocations");
URSA_STAT(StatSchedSpillRounds, "sched.finish_and_emit.spill_rounds",
          "assignment-phase spill-and-reschedule iterations");

/// A machine is structurally too small when one instruction reads more
/// distinct registers than the file holds, or has no unit of the class
/// an instruction issues on — no allocation can fix either.
static bool fileFitsEveryOp(const Trace &T, const MachineModel &M,
                            std::string &Error) {
  for (const Instruction &I : T.instructions()) {
    unsigned Distinct = 0;
    int Seen[3] = {-1, -1, -1};
    for (unsigned S = 0; S != I.numOperands(); ++S) {
      bool New = true;
      for (unsigned P = 0; P != S; ++P)
        New &= I.operand(S) != Seen[P];
      Seen[S] = I.operand(S);
      Distinct += New;
    }
    RegClassKind C = M.isHomogeneous()
                         ? RegClassKind::GPR
                         : (I.numOperands() > 0
                                ? T.vregClass(I.operand(0))
                                : RegClassKind::GPR);
    if (Distinct > M.numRegs(C)) {
      Error = "register file too small for an instruction's operands";
      return false;
    }
    if (M.numFUs(I.fuKind()) == 0) {
      Error = "machine has no functional unit for an instruction's class";
      return false;
    }
  }
  return true;
}

/// Counts spill instructions in a trace.
static unsigned countSpillOps(const Trace &T) {
  unsigned N = 0;
  for (const Instruction &I : T.instructions())
    if (isSpillOp(I.opcode()))
      ++N;
  return N;
}

VLIWProgram ursa::emitSchedule(const DependenceDAG &D, const Schedule &S,
                               const RegAssignment &RA,
                               const MachineModel &M) {
  const Trace &T = D.trace();
  VLIWProgram P(M, T.symbolNames(), T.numSpillSlots());

  // Branch ordinals in trace order.
  std::vector<int64_t> BranchOrdinal(T.size(), -1);
  int64_t NextOrdinal = 0;
  for (unsigned Idx = 0, E = T.size(); Idx != E; ++Idx)
    if (isBranch(T.instr(Idx).opcode()))
      BranchOrdinal[Idx] = NextOrdinal++;

  for (unsigned Cycle = 0; Cycle != S.Cycles.size(); ++Cycle) {
    VLIWWord &W = P.newWord();
    unsigned SlotPerClass[4] = {0, 0, 0, 0};
    for (unsigned N : S.Cycles[Cycle]) {
      unsigned Idx = DependenceDAG::instrOf(N);
      Instruction I = T.instr(Idx);
      if (I.dest() >= 0) {
        assert(RA.PhysOf[I.dest()] >= 0 && "emitting unassigned value");
        I.setDest(RA.PhysOf[I.dest()]);
      }
      for (unsigned Op = 0; Op != I.numOperands(); ++Op) {
        assert(RA.PhysOf[I.operand(Op)] >= 0 && "emitting unassigned use");
        I.setOperand(Op, RA.PhysOf[I.operand(Op)]);
      }
      if (isBranch(I.opcode()))
        I.setIntImm(BranchOrdinal[Idx]);
      unsigned Class = M.isHomogeneous() ? 0u : unsigned(I.fuKind());
      W.Ops.push_back({I, SlotPerClass[Class]++});
    }
  }
  return P;
}

CompileResult ursa::finishAndEmit(DependenceDAG D, const MachineModel &M,
                                  const SchedulerOptions &Opts,
                                  const PipelineHooks &Hooks) {
  URSA_SPAN(SchedSpan, "sched.finish_and_emit", "sched");
  StatSchedRuns.add();
  CompileResult R;
  struct SpillRoundGuard {
    const CompileResult &R;
    ~SpillRoundGuard() { StatSchedSpillRounds.add(R.AssignSpillRounds); }
  } SRG{R};
  if (!fileFitsEveryOp(D.trace(), M, R.Error))
    return R;
  constexpr unsigned MaxSpillRounds = 1024;
  SchedulerOptions SO = Opts;
  for (unsigned Round = 0;; ++Round) {
    Schedule S = listSchedule(D, M, SO);
    RegAssignment RA = assignRegisters(D, S, M);
    R.PeakLive = std::max(R.PeakLive, RA.PeakLive);
    if (RA.Ok) {
      if (Hooks.CheckAssignment) {
        Status St = Hooks.CheckAssignment(D, S, RA, M);
        if (!St.isOk()) {
          R.Error = "assignment verification failed: " + St.message();
          return R;
        }
      }
      VLIWProgram P = emitSchedule(D, S, RA, M);
      std::string Bad = P.validate();
      if (!Bad.empty()) {
        R.Error = "emitted invalid program: " + Bad;
        return R;
      }
      R.Cycles = P.numWords();
      R.Utilization = P.utilization();
      R.SpillOps = countSpillOps(D.trace());
      R.CritPath = DAGAnalysis(D).criticalPathLength();
      R.Prog = std::move(P);
      R.Ok = true;
      return R;
    }
    if (Round == MaxSpillRounds) {
      R.Error = "assignment did not converge (machine too small?)";
      return R;
    }
    int Victim = pickSpillVictim(D, S, RA.ConflictVReg);
    if (Victim < 0) {
      // Everything live across the conflict is already a reload. The
      // conflicting definition itself (typically a reload whose use
      // slipped under FU contention) is delayed instead, shrinking the
      // overlap — iterative schedule repair.
      const Trace &T = D.trace();
      int DefIdx = -1;
      for (unsigned Idx = 0; Idx != T.size(); ++Idx)
        if (T.instr(Idx).dest() == RA.ConflictVReg)
          DefIdx = int(Idx);
      if (DefIdx < 0) {
        R.Error = "no spillable value; register file too small for an op";
        return R;
      }
      // Rebase on the *current* schedule (anchors must track slips) and
      // push the conflicting definition past the overlap.
      SO.IssueBias.resize(T.size());
      for (unsigned Idx = 0; Idx != T.size(); ++Idx)
        SO.IssueBias[Idx] = S.CycleOf[DependenceDAG::nodeOf(Idx)] * 4;
      SO.IssueBias[DefIdx] += 10;
      ++R.AssignSpillRounds;
      continue;
    }
    // Incorporate the spill into the *existing* schedule (paper Section
    // 1): keep every surviving instruction at its old cycle preference so
    // rescheduling cannot re-float reloads and recreate the pressure.
    Trace T = D.trace();
    std::vector<int> OldBias(T.size());
    for (unsigned Idx = 0; Idx != T.size(); ++Idx)
      OldBias[Idx] = S.CycleOf[DependenceDAG::nodeOf(Idx)] * 4;
    std::vector<int> NewBias;
    spillValueInTrace(T, Victim, &OldBias, &NewBias);
    SO.IssueBias = std::move(NewBias);
    D = buildDAG(std::move(T));
    ++R.AssignSpillRounds;
  }
}

CompileResult ursa::compilePrepass(const Trace &T, const MachineModel &M) {
  return finishAndEmit(buildDAG(T), M);
}

CompileResult ursa::compileIntegrated(const Trace &T, const MachineModel &M) {
  SchedulerOptions SO;
  SO.RegPressureLimit = M.numRegs(RegClassKind::GPR);
  return finishAndEmit(buildDAG(T), M, SO);
}

CompileResult ursa::compilePostpass(const Trace &T, const MachineModel &M) {
  CompileResult R;
  if (!fileFitsEveryOp(T, M, R.Error))
    return R;
  DependenceDAG D = buildDAG(T);

  // Allocate on the sequential order, spilling until the files suffice.
  RegAssignment RA;
  constexpr unsigned MaxSpillRounds = 1024;
  for (unsigned Round = 0;; ++Round) {
    Schedule Seq = sequentialSchedule(D);
    RA = assignRegisters(D, Seq, M);
    R.PeakLive = std::max(R.PeakLive, RA.PeakLive);
    if (RA.Ok)
      break;
    if (Round == MaxSpillRounds) {
      R.Error = "postpass allocation did not converge";
      return R;
    }
    int Victim = pickSpillVictim(D, Seq, RA.ConflictVReg);
    if (Victim < 0) {
      R.Error = "no spillable value; register file too small for an op";
      return R;
    }
    Trace T2 = D.trace();
    spillValueInTrace(T2, Victim);
    D = buildDAG(std::move(T2));
    ++R.AssignSpillRounds;
  }

  // Fix the mapping, add the reuse edges it implies, then schedule.
  R.SeqEdgesAdded = addReuseEdges(D, RA);
  Schedule S = listSchedule(D, M);
  VLIWProgram P = emitSchedule(D, S, RA, M);
  std::string Bad = P.validate();
  if (!Bad.empty()) {
    R.Error = "emitted invalid program: " + Bad;
    return R;
  }
  R.Cycles = P.numWords();
  R.Utilization = P.utilization();
  R.SpillOps = countSpillOps(D.trace());
  R.CritPath = DAGAnalysis(D).criticalPathLength();
  R.Prog = std::move(P);
  R.Ok = true;
  return R;
}
