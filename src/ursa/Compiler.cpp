//===- ursa/Compiler.cpp - End-to-end URSA compilation --------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ursa/Compiler.h"

#include "graph/DAGBuilder.h"
#include "ir/Verifier.h"
#include "obs/Tracer.h"
#include "ursa/PipelineVerifier.h"

using namespace ursa;

URSACompileResult ursa::compileURSA(const Trace &T, const MachineModel &M,
                                    const URSAOptions &Opts) {
  URSA_SPAN(CompileSpan, "ursa.compile", "pipeline");
  URSACompileResult R;

  // Front gate: buildDAG and the analyses assume a structurally sound
  // trace (asserting otherwise), so a gated pipeline must reject bad
  // input before touching them.
  if (Opts.Verify != VerifyLevel::None) {
    std::vector<std::string> Problems = verifyTrace(T);
    if (!Problems.empty()) {
      for (const std::string &P : Problems)
        R.Diags.push_back({Severity::Error, "input", P});
      R.VerifyFailed = true;
      R.Compile.Error = "input trace malformed: " + Problems.front();
      return R;
    }
  }

  URSAResult Alloc = runURSA(buildDAG(T), M, Opts);
  R.AllocRounds = Alloc.Rounds;
  R.AllocSeqEdges = Alloc.SeqEdgesAdded;
  R.AllocSpills = Alloc.SpillsInserted;
  R.AllocWithinLimits = Alloc.WithinLimits;
  R.FinalRequired = Alloc.FinalRequired;
  R.AllocRoundLog = Alloc.RoundLog;
  R.AllocStopReasons = Alloc.StopReasons;
  R.VerifyFailed = Alloc.VerifyFailed;
  R.LivelockDetected = Alloc.LivelockDetected;
  R.BudgetExhausted = Alloc.BudgetExhausted;
  R.FallbackUsed = Alloc.FallbackUsed;
  R.Diags = std::move(Alloc.Diags);
  if (Alloc.VerifyFailed) {
    R.Compile.Error = "allocation verification failed";
    for (const Diag &Dg : R.Diags)
      if (Dg.Sev == Severity::Error) {
        R.Compile.Error = Dg.str();
        break;
      }
    return R; // the DAG is corrupt; scheduling it would crash or lie
  }

  // The assignment phase lives a layer below the verifier, so its check
  // rides in as a callback on the shared pipeline tail.
  PipelineHooks Hooks;
  if (Opts.Verify != VerifyLevel::None)
    Hooks.CheckAssignment = [](const DependenceDAG &D, const Schedule &S,
                               const RegAssignment &RA,
                               const MachineModel &MM) {
      return verifyAssignment(D, S, RA, MM);
    };

  R.Compile = finishAndEmit(std::move(Alloc.DAG), M, {}, Hooks);
  R.Compile.SeqEdgesAdded += Alloc.SeqEdgesAdded;
  if (!R.Compile.Ok) {
    R.Diags.push_back({Severity::Error, "assign", R.Compile.Error});
    return R;
  }

  // End-to-end gate: the compiled program must agree with the source
  // trace's observable behaviour on random inputs (spills and sequencing
  // may reorder work but never change memory traffic or branch outcomes).
  if (Opts.Verify == VerifyLevel::Full) {
    Status St = verifySemanticEquivalence(T, *R.Compile.Prog);
    if (!St.isOk()) {
      for (const Diag &Dg : St.diags())
        R.Diags.push_back(Dg);
      R.VerifyFailed = true;
      R.Compile.Ok = false;
      R.Compile.Error = "semantic equivalence check failed: " + St.message();
    }
  }
  return R;
}

StatusOr<URSACompileResult>
ursa::compileURSAChecked(const Trace &T, const MachineModel &M,
                         const URSAOptions &Opts) {
  URSAOptions O = Opts;
  if (O.Verify == VerifyLevel::None)
    O.Verify = VerifyLevel::Basic;
  URSACompileResult R = compileURSA(T, M, O);
  if (!R.Compile.Ok) {
    Status St;
    for (const Diag &Dg : R.Diags)
      St.add(Dg);
    if (St.isOk()) // no error-severity diagnostic: wrap the error string
      St.add({Severity::Error, "compile", R.Compile.Error});
    return St;
  }
  return R;
}
