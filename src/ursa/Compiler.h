//===- ursa/Compiler.h - End-to-end URSA compilation ------------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public one-call entry point: trace in, VLIW program out, through
/// the full URSA pipeline of the paper —
///
///   build dependence DAG
///   -> measure requirements (Reuse DAGs, chain decomposition)
///   -> reduce excesses (sequence edges, spills)
///   -> assign registers and functional units, generate code.
///
/// Quickstart:
/// \code
///   Trace T = parseTraceOrDie(Source);
///   MachineModel M = MachineModel::homogeneous(4, 8);
///   URSACompileResult R = compileURSA(T, M);
///   SimResult Sim = simulate(*R.Compile.Prog, Inputs);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef URSA_URSA_COMPILER_H
#define URSA_URSA_COMPILER_H

#include "sched/Pipelines.h"
#include "ursa/Driver.h"

namespace ursa {

/// Compile outcome: the shared pipeline metrics plus URSA's allocation
/// accounting.
struct URSACompileResult {
  CompileResult Compile;
  /// Allocation-phase details (rounds, requirement levels, round log).
  unsigned AllocRounds = 0;
  unsigned AllocSeqEdges = 0;
  unsigned AllocSpills = 0;
  bool AllocWithinLimits = false;
  std::vector<unsigned> FinalRequired;
  /// Structured per-round telemetry (see ursa/Driver.h RoundRecord).
  std::vector<RoundRecord> AllocRoundLog;
  /// Why the reduction loop stopped early, when it did (URSAResult::
  /// StopReasons).
  std::vector<std::string> AllocStopReasons;

  /// Guardrail accounting (see docs/ROBUSTNESS.md). VerifyFailed means a
  /// pipeline invariant was violated and compilation stopped with
  /// diagnostics; Compile.Ok is false in that case.
  bool VerifyFailed = false;
  bool LivelockDetected = false;
  bool BudgetExhausted = false;
  bool FallbackUsed = false;
  std::vector<Diag> Diags;
};

/// Runs the full URSA pipeline on \p T for machine \p M. With
/// URSAOptions::Verify above None the input trace is gated before the DAG
/// is built and every phase boundary is checked; violations surface as
/// Compile.Ok == false plus Diags instead of assertion failures. A run
/// that URSAOptions::Deadline cancels also returns Compile.Ok == false,
/// with no program and the "deadline" stop reason.
URSACompileResult compileURSA(const Trace &T, const MachineModel &M,
                              const URSAOptions &Opts = {});

/// Fallible entry point: like compileURSA but with verification forced to
/// at least Basic, returning a Status (never crashing) when the input is
/// malformed, an invariant breaks mid-pipeline, emission fails, or the
/// deadline cancels the run.
StatusOr<URSACompileResult> compileURSAChecked(const Trace &T,
                                               const MachineModel &M,
                                               const URSAOptions &Opts = {});

} // namespace ursa

#endif // URSA_URSA_COMPILER_H
