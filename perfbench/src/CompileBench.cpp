//===- perfbench/src/CompileBench.cpp - Timed and traced compile runs -----===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The timed run compiles the workload's functions in order, pass after
// pass, timing each parseTrace + compileURSAChecked call: source text in,
// verified VLIW program out. Outside the timed calls it checks that every
// pass reproduces the first one exactly (quality, program text, obs
// counts) and, after the loop, runs each program under simulate against
// interpret.
//
// The traced run measures layers from outside. Per function it:
//  * compiles through the same public calls compileURSAChecked makes
//    (verifyTrace, buildDAG, runURSA, finishAndEmit), each in a span under
//    one "compile" span, and takes the obs counter deltas around it: how
//    often the driver repeated each layer internally;
//  * calls each measurement and transformation layer once on the
//    round-start state under a "probe" span (DAGAnalysis, HammockForest,
//    measureAll, findExcessiveSets, the propose* generators and
//    applyTransform);
//  * checks the program under a "check" span (interpret, simulate);
//  * times one untraced parse + compileURSAChecked, alternating before and
//    after the traced compile, for the tracing overhead.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "graph/Closure.h"
#include "graph/DAGBuilder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "ursa/Compiler.h"
#include "ursa/PipelineVerifier.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace perfbench;
using namespace ursa;

namespace {

/// A run keeps compiling whole passes until both --seconds and this many
/// compiles are reached, so the median and tail rest on enough samples.
constexpr double MinSamples = 20;
/// Hard stop, far inside the per-run time limit.
constexpr double MaxRunMs = 120000;

/// The first pass's result for one function.
struct FirstResult {
  bool Have = false;
  Quality Q;
  Trace Parsed;
  std::optional<VLIWProgram> Prog;
  uint64_t Compiles = 0; ///< compiles that reproduced Q exactly
};

/// Quality metrics and digest lines over the first pass.
void reportFirstPass(const Inputs &In, const std::vector<FirstResult> &First,
                     Outcome &Out) {
  std::vector<std::pair<std::string, Quality>> Q;
  for (size_t F = 0; F != First.size(); ++F)
    if (First[F].Have)
      Q.emplace_back(In.Funcs[F].Name, First[F].Q);
  reportQuality(Q, Out);
}

/// simulate vs interpret on each function's first-pass program; a
/// mismatch fails every compile that emitted that program.
void checkPrograms(const Options &O, const Inputs &In,
                   std::vector<FirstResult> &First, Outcome &Out) {
  for (size_t F = 0; F != First.size(); ++F) {
    if (!First[F].Have)
      continue;
    std::string Why =
        checkProgram(First[F].Parsed, *First[F].Prog, O.Seed,
                     O.Inject == "mismatch" && F == 0, nullptr, int(F), 0);
    if (!Why.empty())
      Out.fail(In.Funcs[F].Name + ": " + Why, First[F].Compiles);
  }
}

/// Records one compile's quality against the function's first result.
void noteResult(FirstResult &R, const std::string &Name, const Quality &Q,
                Trace &&Parsed, std::optional<VLIWProgram> &&Prog,
                Outcome &Out) {
  if (!R.Have) {
    R.Have = true;
    R.Q = Q;
    R.Parsed = std::move(Parsed);
    R.Prog = std::move(Prog);
    R.Compiles = 1;
  } else if (Q == R.Q) {
    ++R.Compiles;
  } else {
    Out.fail(Name + ": result drifted from the first pass (" + R.Q.str() +
             " then " + Q.str() + ")");
  }
}

void compareCounts(std::optional<Counts> &First, const Counts &Now,
                   unsigned Pass, Outcome &Out) {
  if (!First) {
    First = Now;
    return;
  }
  for (const auto &[Name, V] : Now)
    if (First->at(Name) != V) {
      Out.fail("obs count " + Name + " drifted on pass " +
               std::to_string(Pass) + ": " + std::to_string(First->at(Name)) +
               " then " + std::to_string(V));
      return;
    }
}

void digestCounts(const Counts &C, Outcome &Out) {
  for (const auto &[Name, V] : C)
    Out.Digest.push_back("count " + Name + " " + std::to_string(V));
}

Outcome timedRun(const Options &O, const Inputs &In) {
  Outcome Out;
  const MachineModel M = In.machine();
  // The "drift" self-test compiles one function for a different machine on
  // the second pass; the determinism gate must catch it.
  const MachineModel DriftM = MachineModel::homogeneous(In.Fus + 1, In.Regs);
  std::vector<FirstResult> First(In.Funcs.size());
  std::optional<Counts> FirstCounts;
  std::vector<std::vector<double>> PerFn(In.Funcs.size());
  size_t NumSamples = 0;
  auto Start = Clock::now();
  for (unsigned Pass = 0;
       (msSince(Start) < O.Seconds * 1000 || NumSamples < MinSamples) &&
       msSince(Start) < MaxRunMs;
       ++Pass) {
    Counts Before = snapshotCounts();
    for (size_t F = 0; F != In.Funcs.size(); ++F) {
      const Function &Fn = In.Funcs[F];
      const MachineModel &MF =
          O.Inject == "drift" && Pass == 1 && F == 0 ? DriftM : M;
      ++Out.Attempted;
      auto T0 = Clock::now();
      Trace T(Fn.Name);
      std::string Err;
      bool Parsed = parseTrace(Fn.Source, T, Err);
      std::optional<StatusOr<URSACompileResult>> R;
      if (Parsed)
        R.emplace(compileURSAChecked(T, MF));
      double Ms = msSince(T0);
      PerFn[F].push_back(Ms);
      ++NumSamples;
      if (!Parsed) {
        Out.fail(Fn.Name + ": parse error: " + Err);
        continue;
      }
      if (!R->isOk()) {
        Out.fail(Fn.Name + ": " + R->status().message());
        continue;
      }
      URSACompileResult &C = **R;
      noteResult(First[F], Fn.Name, qualityOf(C.FinalRequired, C.Compile),
                 std::move(T), std::move(C.Compile.Prog), Out);
    }
    compareCounts(FirstCounts, deltaCounts(snapshotCounts(), Before), Pass,
                  Out);
  }
  checkPrograms(O, In, First, Out);

  // Contention from other tenants only ever adds time, in stretches of
  // seconds, so the statistics describe each function's faster half of
  // repeats.
  std::vector<double> Quiet;
  double QuietMs = 0;
  for (std::vector<double> &V : PerFn) {
    std::sort(V.begin(), V.end());
    for (size_t I = 0; I != (V.size() + 1) / 2; ++I) {
      Quiet.push_back(V[I]);
      QuietMs += V[I];
    }
  }
  Out.set("compile_ms_p50", median(Quiet), "ms");
  Out.set("compile_ms_tail", tailAt(Quiet, In.TailPct, "compiles", Out.Notes),
          "ms");
  Out.set("compiles_per_s", double(Quiet.size()) / (QuietMs / 1000), "1/s");
  Out.Notes.push_back(std::to_string(NumSamples) + " compiles timed; the "
                      "faster half of each function's repeats kept");
  reportFirstPass(In, First, Out);
  if (FirstCounts)
    digestCounts(*FirstCounts, Out);
  return Out;
}

/// The layer spans under "compile"; their sum over the compile span's
/// duration is the attributed share.
const char *const CompileLayers[] = {"ir.parse", "ir.verify",
                                     "graph.dag_build", "ursa.driver",
                                     "sched.emit"};
/// Probe and check layers, timed on the round-start state and the output.
const char *const ProbeLayers[] = {
    "graph.closure", "graph.hammocks", "ursa.measure", "ursa.excess",
    "ursa.propose",  "ursa.apply",     "ir.interpret", "vliw.simulate"};

/// Calls each measurement and transformation layer once on the
/// round-start DAG \p D0, the way one driver round does.
void probeLayers(const DependenceDAG &D0, const MachineModel &M, SpanLog &Log,
                 int Fn, int Pass, uint64_t &PeakClosure) {
  SpanScope Probe(&Log, "probe", Fn, Pass);
  std::unique_ptr<DAGAnalysis> A;
  {
    SpanScope S(&Log, "graph.closure", Fn, Pass);
    A = std::make_unique<DAGAnalysis>(D0);
  }
  std::unique_ptr<HammockForest> HF;
  {
    SpanScope S(&Log, "graph.hammocks", Fn, Pass);
    HF = std::make_unique<HammockForest>(D0, *A);
  }
  std::vector<Measurement> Meas;
  {
    SpanScope S(&Log, "ursa.measure", Fn, Pass);
    Meas = measureAll(D0, *A, *HF, M);
  }
  PeakClosure = std::max(PeakClosure, closureBytesGauge());

  // As the driver does: innermost sets first, at most two per resource,
  // with the search capped above the closure threshold.
  std::vector<std::pair<bool, ExcessiveChainSet>> Sets;
  std::vector<std::pair<ResourceId, unsigned>> Limits = machineResources(M);
  unsigned MaxSets = D0.size() > closureThreshold() ? 2 : 0;
  for (size_t I = 0; I != Meas.size() && I != Limits.size(); ++I) {
    if (Meas[I].MaxRequired <= Limits[I].second)
      continue;
    std::vector<ExcessiveChainSet> Found;
    {
      SpanScope S(&Log, "ursa.excess", Fn, Pass);
      Found = findExcessiveSets(Meas[I], *A, *HF, Limits[I].second, MaxSets);
    }
    for (size_t K = 0; K != Found.size() && K != 2; ++K)
      Sets.emplace_back(Meas[I].Res.Kind == ResourceId::Reg,
                        std::move(Found[K]));
  }
  TransformContext Ctx{D0, *A, *HF};
  std::vector<TransformProposal> Props;
  for (const auto &[IsReg, E] : Sets) {
    SpanScope S(&Log, "ursa.propose", Fn, Pass);
    std::vector<TransformProposal> P =
        IsReg ? proposeRegSequencing(Ctx, E) : proposeFUSequencing(Ctx, E);
    if (IsReg) {
      std::vector<TransformProposal> Sp = proposeSpills(Ctx, E);
      P.insert(P.end(), Sp.begin(), Sp.end());
    }
    Props.insert(Props.end(), P.begin(), P.end());
  }
  for (const TransformProposal &P : Props) {
    DependenceDAG Scratch = D0;
    SpanScope S(&Log, "ursa.apply", Fn, Pass);
    applyTransform(Scratch, P);
  }
}

Outcome tracedRun(const Options &O, const Inputs &In) {
  Outcome Out;
  SpanLog &Log = *O.Log;
  const MachineModel M = In.machine();
  // compileURSAChecked's configuration: defaults, verification at least
  // Basic, the assignment check hooked into the pipeline tail.
  URSAOptions UO;
  if (UO.Verify == VerifyLevel::None)
    UO.Verify = VerifyLevel::Basic;
  PipelineHooks Hooks;
  Hooks.CheckAssignment = [](const DependenceDAG &D, const Schedule &S,
                             const RegAssignment &RA,
                             const MachineModel &MM) {
    return verifyAssignment(D, S, RA, MM);
  };

  const size_t NF = In.Funcs.size();
  std::vector<FirstResult> First(NF);
  std::optional<Counts> FirstCounts;
  Counts CheckCounts;
  uint64_t PeakClosure = 0;
  std::vector<double> UntracedMs;
  auto Start = Clock::now();
  unsigned Passes = 0;
  for (int Pass = 0; Pass == 0 || msSince(Start) < O.Seconds * 1000;
       ++Pass, ++Passes) {
    Counts PassCounts;
    double Untraced = 0;
    for (size_t F = 0; F != NF; ++F) {
      const Function &Fn = In.Funcs[F];
      const int Id = int(F);
      ++Out.Attempted;
      std::optional<Quality> UntracedQ;
      auto CompileUntraced = [&] {
        auto T0 = Clock::now();
        Trace T(Fn.Name);
        std::string Err;
        if (!parseTrace(Fn.Source, T, Err))
          return;
        StatusOr<URSACompileResult> R = compileURSAChecked(T, M);
        Untraced += msSince(T0);
        if (R.isOk())
          UntracedQ = qualityOf(R->FinalRequired, R->Compile);
      };
      if (Pass % 2 == 1)
        CompileUntraced();

      Counts Before = snapshotCounts();
      Trace T(Fn.Name);
      std::optional<DependenceDAG> D0;
      std::optional<CompileResult> C;
      std::vector<unsigned> Required;
      std::string Error;
      {
        SpanScope Compile(&Log, "compile", Id, Pass);
        std::string Err;
        bool Parsed;
        {
          SpanScope S(&Log, "ir.parse", Id, Pass);
          Parsed = parseTrace(Fn.Source, T, Err);
        }
        std::vector<std::string> Problems;
        if (Parsed) {
          SpanScope S(&Log, "ir.verify", Id, Pass);
          Problems = verifyTrace(T);
        }
        if (!Parsed || !Problems.empty()) {
          Error = Parsed ? Problems.front() : Err;
        } else {
          std::optional<DependenceDAG> D;
          {
            SpanScope S(&Log, "graph.dag_build", Id, Pass);
            D.emplace(buildDAG(T));
          }
          D0.emplace(*D); // the round-start state, kept for the probe
          std::optional<URSAResult> A;
          {
            SpanScope S(&Log, "ursa.driver", Id, Pass);
            A.emplace(runURSA(std::move(*D), M, UO));
          }
          PeakClosure = std::max(PeakClosure, uint64_t(A->ClosureBytesPeak));
          Required = A->FinalRequired;
          if (A->VerifyFailed) {
            Error = "allocation verification failed";
          } else {
            SpanScope S(&Log, "sched.emit", Id, Pass);
            C.emplace(finishAndEmit(std::move(A->DAG), M, {}, Hooks));
            if (!C->Ok)
              Error = C->Error;
          }
        }
      }
      addCounts(PassCounts, deltaCounts(snapshotCounts(), Before));
      if (Pass % 2 == 0)
        CompileUntraced();

      if (D0)
        probeLayers(*D0, M, Log, Id, Pass, PeakClosure);
      if (!Error.empty()) {
        Out.fail(Fn.Name + ": " + Error);
        continue;
      }
      Quality Q = qualityOf(Required, *C);
      if (!UntracedQ || !(*UntracedQ == Q))
        Out.fail(Fn.Name + ": traced pipeline differs from compileURSAChecked");
      {
        Counts CheckBefore = snapshotCounts();
        SpanScope Check(&Log, "check", Id, Pass);
        std::string Why =
            checkProgram(T, *C->Prog, O.Seed,
                         O.Inject == "mismatch" && F == 0, &Log, Id, Pass);
        if (!Why.empty())
          Out.fail(Fn.Name + ": " + Why);
        if (Pass == 0)
          addCounts(CheckCounts, deltaCounts(snapshotCounts(), CheckBefore));
      }
      noteResult(First[F], Fn.Name, Q, std::move(T), std::move(C->Prog), Out);
    }
    compareCounts(FirstCounts, PassCounts, unsigned(Pass), Out);
    UntracedMs.push_back(Untraced);
  }

  // Per-layer self time, per function, median over passes.
  std::map<std::string, std::vector<double>> PerLayer;
  std::vector<double> TracedMs, Attributed, Overhead;
  std::vector<SpanLog::PassTimes> Times = Log.perPass(Passes);
  for (unsigned P = 0; P != Passes; ++P) {
    for (const char *L : CompileLayers)
      PerLayer[L].push_back(Times[P].SelfMs[L] / double(NF));
    for (const char *L : ProbeLayers)
      PerLayer[L].push_back(Times[P].SelfMs[L] / double(NF));
    double Total = Times[P].TotalMs["compile"];
    TracedMs.push_back(Total);
    if (Total > 0)
      Attributed.push_back(100 * (1 - Times[P].SelfMs["compile"] / Total));
    if (UntracedMs[P] > 0)
      Overhead.push_back(100 * (Total - UntracedMs[P]) / UntracedMs[P]);
  }
  for (const auto &[Name, V] : PerLayer)
    Out.set(Name + "_ms", median(V), "ms");
  Out.set("trace.overhead_pct", median(Overhead), "%");
  Out.set("trace.attributed_pct", median(Attributed), "%");
  Out.Notes.push_back(
      "traced compile " + std::to_string(median(TracedMs)) + " ms/pass vs " +
      std::to_string(median(UntracedMs)) + " ms/pass untraced, over " +
      std::to_string(Passes) + " passes");

  Counts C = FirstCounts ? *FirstCounts : Counts{};
  C["vliw.sim.ops_issued"] = CheckCounts["vliw.sim.ops_issued"];
  for (const auto &[Name, V] : C)
    Out.set(Name, double(V), "count", true);
  Out.set("ursa.measure.closure_bytes", double(PeakClosure), "bytes", true);
  auto Ratio = [&](const char *Name, double Num, double Den,
                   const std::string &Base) {
    Out.set(Name, Den > 0 ? Num / Den : 0, "ratio");
    Out.Notes.push_back(std::string(Name) + " base: " + Base + " = " +
                        std::to_string(uint64_t(Den)));
  };
  double Evals = double(C["ursa.driver.incremental.delta_evals"]);
  Ratio("ursa.delta_ratio", Evals,
        Evals + double(C["ursa.driver.incremental.fallbacks"]),
        "delta_evals + fallbacks");
  double Hits = double(C["ursa.driver.measure_cache.hits"]);
  Ratio("ursa.cache_hit_ratio", Hits,
        Hits + double(C["ursa.driver.measure_cache.misses"]),
        "measure_cache hits + misses");
  double Kept = 0, Proposed = 0;
  for (const char *K : {"fu_seq", "reg_seq", "spill"}) {
    Kept += double(C[std::string("ursa.transforms.kept.") + K]);
    Proposed += double(C[std::string("ursa.transforms.proposed.") + K]);
  }
  Ratio("ursa.transform_keep_ratio", Kept, Proposed,
        "ursa.transforms.proposed.*");
  for (const char *S : {"service.queue_ms_p50", "service.compile_ms_p50",
                        "service.codec_ms"})
    Out.set(S, 0, "ms");
  reportFirstPass(In, First, Out);
  digestCounts(C, Out);
  return Out;
}

} // namespace

Outcome perfbench::runCompileBench(const Options &O, const Inputs &In) {
  return O.Trace ? tracedRun(O, In) : timedRun(O, In);
}
