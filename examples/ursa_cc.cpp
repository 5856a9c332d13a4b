//===- examples/ursa_cc.cpp - The command-line compiler driver ------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A small but complete compiler driver over the whole library:
//
//   ursa_cc [input] [options]
//
//   input                 a .cfg function ("func ... { block ...: }") or a
//                         straight-line trace in the IR syntax; built-in
//                         demo function when omitted
//   --machine FxR         homogeneous machine, e.g. --machine 4x8
//   --classed i,f,m,g,p   classed machine (int/float/mem FUs, GPRs, FPRs);
//                         a machine MachineModel cannot build (no units or
//                         registers, or above its per-class caps) is an
//                         error
//   --latencies i,f,m     operation latencies (default 1,1,1)
//   --pipelined           initiation-interval-1 functional units
//   --pipeline NAME       ursa | prepass | postpass | integrated
//   --order NAME          regs | fus | integrated (URSA phase order)
//   --unroll K            unroll self-loops K times before trace formation
//   --auto-unroll         pick the unroll factor by calibration (URSA only)
//   --emit WHAT           asm | dot | stats   (default: asm + stats)
//   --set NAME=INT        initial memory value (repeatable)
//   --run                 execute and print the final memory state
//   --verify LEVEL        off | basic | full phase-boundary verification
//                         (URSA only; overrides URSA_VERIFY; diagnostics
//                         go to stderr — see docs/ROBUSTNESS.md)
//   --guaranteed-fit      force residual excess to fit via the
//                         sequentialize-and-spill fallback (URSA only)
//   --threads N           worker threads for proposal evaluation in the
//                         URSA driver (default: URSA_THREADS, else 1);
//                         results are identical across thread counts
//   --beam K              live states the driver loop keeps per round
//                         (default: URSA_BEAM, else 1 = the paper's
//                         greedy keep-one-winner search); see
//                         docs/PERFORMANCE.md
//   --portfolio           race phase orderings + seeded tie-breaks and
//                         keep the best allocation (URSA only)
//   --incremental         score edge-only proposals through the delta
//   --no-incremental      measurement engine / always rebuild in full
//                         (default: URSA_INCREMENTAL, else on); results
//                         are identical either way
//   --cache-size N        measurement-cache entries in the URSA driver
//                         (default: URSA_CACHE_SIZE, else 4)
//   --closure MODE        dense | blocked | auto closure representation
//                         (overrides URSA_CLOSURE; auto switches on size)
//   --report              print the human-readable allocation report
//   --report-json         print the machine-readable allocation report
//                         (schema ursa.allocation_report.v1, or
//                         ursa.function_report.v1 for CFG inputs) to
//                         stdout and exit; URSA pipeline only
//   --trace-out FILE      write a Chrome-trace-event JSON timeline of the
//                         compilation (load in ui.perfetto.dev); see
//                         docs/OBSERVABILITY.md
//
//===----------------------------------------------------------------------===//

#include "cfg/CFGCompiler.h"
#include "graph/Closure.h"
#include "graph/DAGBuilder.h"
#include "cfg/CFGParser.h"
#include "cfg/SoftwarePipeline.h"
#include "cfg/Unroll.h"
#include "ir/Parser.h"
#include "obs/Json.h"
#include "obs/Stats.h"
#include "obs/Tracer.h"
#include "support/Dot.h"
#include "ursa/Compiler.h"
#include "ursa/Report.h"
#include "vliw/Simulator.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace ursa;

namespace {

const char *DemoSource = R"(
func demo {
block entry:
  z = ldi 0
  store acc, z
  jmp loop
block loop:
  a  = load acc
  i  = load i
  p  = mul i, i
  a2 = add a, p
  k  = ldi 1
  i2 = sub i, k
  z0 = ldi 0
  store acc, a2
  store i, i2
  c  = cmplt z0, i2
  br c ? loop:0.9 : exit
block exit:
  ret
}
)";

struct Options {
  std::string Input;
  unsigned Fus = 4, Regs = 8;
  bool Classed = false;
  unsigned IntFus = 2, FltFus = 1, MemFus = 1, Gprs = 8, Fprs = 4;
  unsigned LatInt = 1, LatFlt = 1, LatMem = 1;
  bool Pipelined = false;
  std::string Pipeline = "ursa";
  std::string Order = "regs";
  unsigned Unroll = 1;
  bool AutoUnroll = false;
  bool EmitAsm = true, EmitDot = false, EmitStats = true;
  bool Report = false;
  bool ReportJson = false;
  std::string TraceOut;
  bool Run = false;
  std::string Verify; ///< empty = keep the URSA_VERIFY default
  bool GuaranteedFit = false;
  unsigned Threads = 0;   ///< 0 = URSA_THREADS default
  unsigned Beam = 0;      ///< 0 = URSA_BEAM default (1 = greedy)
  bool Portfolio = false;
  int Incremental = -1;   ///< -1 = URSA_INCREMENTAL default
  unsigned CacheSize = 0; ///< 0 = URSA_CACHE_SIZE default
  std::string ClosureModeArg; ///< empty = keep the URSA_CLOSURE default
  MemoryState Inputs;
};

bool parseUints(const char *S, std::vector<unsigned> &Out, char Sep) {
  Out.clear();
  std::stringstream In(S);
  std::string Tok;
  while (std::getline(In, Tok, Sep))
    Out.push_back(unsigned(std::atoi(Tok.c_str())));
  return !Out.empty();
}

/// Reports a machine the model cannot build; true when \p St is ok.
bool checkMachine(const Status &St) {
  if (!St.isOk())
    std::fprintf(stderr, "%s\n", St.str().c_str());
  return St.isOk();
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--machine") {
      std::vector<unsigned> V;
      const char *S = Next();
      if (!S || !parseUints(S, V, 'x') || V.size() != 2)
        return false;
      if (!checkMachine(MachineModel::checkHomogeneous(V[0], V[1])))
        return false;
      O.Fus = V[0];
      O.Regs = V[1];
    } else if (A == "--classed") {
      std::vector<unsigned> V;
      const char *S = Next();
      if (!S || !parseUints(S, V, ',') || V.size() != 5)
        return false;
      if (!checkMachine(
              MachineModel::checkClassed(V[0], V[1], V[2], V[3], V[4])))
        return false;
      O.Classed = true;
      O.IntFus = V[0];
      O.FltFus = V[1];
      O.MemFus = V[2];
      O.Gprs = V[3];
      O.Fprs = V[4];
    } else if (A == "--latencies") {
      std::vector<unsigned> V;
      const char *S = Next();
      if (!S || !parseUints(S, V, ',') || V.size() != 3)
        return false;
      O.LatInt = V[0];
      O.LatFlt = V[1];
      O.LatMem = V[2];
    } else if (A == "--pipelined") {
      O.Pipelined = true;
    } else if (A == "--pipeline") {
      const char *S = Next();
      if (!S)
        return false;
      O.Pipeline = S;
    } else if (A == "--order") {
      const char *S = Next();
      if (!S)
        return false;
      O.Order = S;
    } else if (A == "--unroll") {
      const char *S = Next();
      if (!S)
        return false;
      O.Unroll = unsigned(std::atoi(S));
    } else if (A == "--auto-unroll") {
      O.AutoUnroll = true;
    } else if (A == "--emit") {
      const char *S = Next();
      if (!S)
        return false;
      O.EmitAsm = !std::strcmp(S, "asm");
      O.EmitDot = !std::strcmp(S, "dot");
      O.EmitStats = !std::strcmp(S, "stats");
    } else if (A == "--set") {
      const char *S = Next();
      if (!S)
        return false;
      std::string KV = S;
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos)
        return false;
      O.Inputs[KV.substr(0, Eq)] =
          Value::ofInt(std::atoll(KV.c_str() + Eq + 1));
    } else if (A == "--report") {
      O.Report = true;
    } else if (A == "--report-json") {
      O.ReportJson = true;
    } else if (A == "--trace-out") {
      const char *S = Next();
      if (!S)
        return false;
      O.TraceOut = S;
    } else if (A == "--run") {
      O.Run = true;
    } else if (A == "--verify") {
      const char *S = Next();
      if (!S)
        return false;
      if (std::string(S) != "off" && std::string(S) != "none" &&
          std::string(S) != "basic" && std::string(S) != "full") {
        std::fprintf(stderr, "unknown --verify level '%s' (off|basic|full)\n",
                     S);
        return false;
      }
      O.Verify = S;
    } else if (A == "--guaranteed-fit") {
      O.GuaranteedFit = true;
    } else if (A == "--threads") {
      const char *S = Next();
      if (!S || std::atoi(S) < 1)
        return false;
      O.Threads = unsigned(std::atoi(S));
    } else if (A == "--beam") {
      const char *S = Next();
      if (!S || std::atoi(S) < 1)
        return false;
      O.Beam = unsigned(std::atoi(S));
    } else if (A == "--portfolio") {
      O.Portfolio = true;
    } else if (A == "--incremental") {
      O.Incremental = 1;
    } else if (A == "--no-incremental") {
      O.Incremental = 0;
    } else if (A == "--cache-size") {
      const char *S = Next();
      if (!S || std::atoi(S) < 1)
        return false;
      O.CacheSize = unsigned(std::atoi(S));
    } else if (A == "--closure") {
      const char *S = Next();
      if (!S)
        return false;
      if (std::string(S) != "dense" && std::string(S) != "blocked" &&
          std::string(S) != "auto") {
        std::fprintf(stderr,
                     "unknown --closure mode '%s' (dense|blocked|auto)\n", S);
        return false;
      }
      O.ClosureModeArg = S;
    } else if (A.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      return false;
    } else {
      O.Input = A;
    }
  }
  return true;
}

CompileResult compileTraceBy(const std::string &Name, const Trace &T,
                             const MachineModel &M, const URSAOptions &UO) {
  if (Name == "prepass")
    return compilePrepass(T, M);
  if (Name == "postpass")
    return compilePostpass(T, M);
  if (Name == "integrated")
    return compileIntegrated(T, M);
  URSACompileResult R = compileURSA(T, M, UO);
  for (const Diag &D : R.Diags)
    std::fprintf(stderr, "%s\n", D.str().c_str());
  return R.Compile;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr, "usage: see the header of examples/ursa_cc.cpp\n");
    return 1;
  }

  // Flushes --trace-out on every exit path.
  struct TraceGuard {
    bool Active = false;
    std::string Path;
    ~TraceGuard() {
      if (Active && !obs::endTrace())
        std::fprintf(stderr, "warning: cannot write trace to '%s'\n",
                     Path.c_str());
    }
  } TG;
  if (!O.TraceOut.empty()) {
    obs::startTrace(O.TraceOut);
    TG.Active = true;
    TG.Path = O.TraceOut;
  }

  if (O.ReportJson && O.Pipeline != "ursa") {
    std::fprintf(stderr,
                 "error: --report-json reports the URSA allocation and "
                 "needs --pipeline ursa\n");
    return 1;
  }

  std::string Source = DemoSource;
  if (!O.Input.empty()) {
    std::ifstream File(O.Input);
    if (!File) {
      std::fprintf(stderr, "error: cannot open '%s'\n", O.Input.c_str());
      return 1;
    }
    std::stringstream Buf;
    Buf << File.rdbuf();
    Source = Buf.str();
  } else {
    if (!O.Inputs.count("i"))
      O.Inputs["i"] = Value::ofInt(24);
  }

  MachineModel M = O.Classed
                       ? MachineModel::classed(O.IntFus, O.FltFus, O.MemFus,
                                               O.Gprs, O.Fprs)
                       : MachineModel::homogeneous(O.Fus, O.Regs);
  if (O.LatInt != 1 || O.LatFlt != 1 || O.LatMem != 1)
    M.withLatencies(O.LatInt, O.LatFlt, O.LatMem);
  if (O.Pipelined)
    M.withPipelinedFUs();
  PhaseOrdering Order = O.Order == "fus" ? PhaseOrdering::FUsFirst
                        : O.Order == "integrated"
                            ? PhaseOrdering::Integrated
                            : PhaseOrdering::RegistersFirst;
  URSAOptions UO;
  UO.Order = Order;
  if (!O.Verify.empty())
    UO.Verify = parseVerifyLevel(O.Verify.c_str());
  UO.GuaranteedFit = O.GuaranteedFit;
  UO.Threads = O.Threads;
  UO.BeamWidth = O.Beam;
  UO.Portfolio = O.Portfolio;
  if (O.Incremental >= 0)
    UO.IncrementalMeasure = O.Incremental != 0;
  if (O.CacheSize)
    UO.MeasurementCacheSize = O.CacheSize;
  if (!O.ClosureModeArg.empty())
    setClosureMode(O.ClosureModeArg == "dense"    ? ClosureMode::Dense
                   : O.ClosureModeArg == "blocked" ? ClosureMode::Blocked
                                                   : ClosureMode::Auto);

  bool IsCFG = Source.find("func ") != std::string::npos;

  if (!IsCFG) {
    // Straight-line trace path.
    Trace T("input");
    std::string Err;
    if (!parseTrace(Source, T, Err)) {
      std::fprintf(stderr, "parse error: %s\n", Err.c_str());
      return 1;
    }
    if (O.ReportJson) {
      DependenceDAG D0 = buildDAG(T);
      URSAResult AR = runURSA(D0, M, UO);
      std::printf("%s\n", formatAllocationReportJSON(D0, AR, M).c_str());
      return 0;
    }
    if (O.Report && O.Pipeline == "ursa") {
      DependenceDAG D0 = buildDAG(T);
      URSAResult AR = runURSA(D0, M, UO);
      std::printf("%s\n", formatAllocationReport(D0, AR, M).c_str());
    }
    CompileResult R = compileTraceBy(O.Pipeline, T, M, UO);
    if (!R.Ok) {
      std::fprintf(stderr, "compile error: %s\n", R.Error.c_str());
      return 1;
    }
    // Rendered through the same helper the compile service uses, so
    // ursa_batch output stays bit-identical to this tool's.
    std::fputs(
        formatCompileText(O.Pipeline, M, R, O.EmitStats, O.EmitAsm).c_str(),
        stdout);
    if (O.Run) {
      SimResult S = simulate(*R.Prog, O.Inputs);
      if (!S.Ok) {
        std::fprintf(stderr, "run error: %s\n", S.Error.c_str());
        return 1;
      }
      for (const auto &[Name, V] : S.Exec.Memory)
        std::printf("%s = %lld\n", Name.c_str(), (long long)V.I);
    }
    return 0;
  }

  // Whole-function path.
  CFGFunction F;
  std::string Err;
  if (!parseCFG(Source, F, Err)) {
    std::fprintf(stderr, "parse error: %s\n", Err.c_str());
    return 1;
  }

  CFGFunction U("pending");
  CompiledCFG C;
  if (O.AutoUnroll && O.Pipeline == "ursa") {
    PipelineSearchResult S = searchUnrollFactor(F, M, O.Inputs);
    if (!S.Ok) {
      std::fprintf(stderr, "auto-unroll failed: %s\n", S.Error.c_str());
      return 1;
    }
    std::printf("; auto-unroll picked x%u (calibrated at %u cycles)\n",
                S.BestFactor, S.BestCycles);
    U = std::move(S.Unrolled);
    C = std::move(S.Compiled);
  } else {
    U = unrollLoops(F, O.Unroll);
    C = compileCFG(U, M, [&](const Trace &T, const MachineModel &Mm) {
      return compileTraceBy(O.Pipeline, T, Mm, UO);
    });
    if (!C.Ok) {
      std::fprintf(stderr, "compile error: %s\n", C.Error.c_str());
      return 1;
    }
  }

  if (O.ReportJson) {
    // One allocation report per formed trace, wrapped with the machine
    // and a single end-of-run stats snapshot (per-trace reports skip the
    // snapshot — it is process-wide, not per-trace).
    obs::JsonWriter W;
    W.beginObject();
    W.kv("schema", "ursa.function_report.v1");
    W.kv("function", F.name());
    W.kv("machine", M.describe());
    W.key("traces").beginArray();
    for (const FormedTrace &FT : C.Traces.Traces) {
      DependenceDAG D0 = buildDAG(FT.Code);
      URSAResult AR = runURSA(D0, M, UO);
      W.raw(formatAllocationReportJSON(D0, AR, M, /*IncludeStats=*/false));
    }
    W.endArray();
    W.key("stats").beginObject();
    for (const obs::StatValue &SV : obs::snapshotStats(/*NonZeroOnly=*/true))
      W.kv(SV.Name, SV.Value);
    W.endObject();
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return 0;
  }
  if (O.EmitDot) {
    for (unsigned TI = 0; TI != C.Traces.Traces.size(); ++TI) {
      DependenceDAG D = buildDAG(C.Traces.Traces[TI].Code);
      DotWriter W("trace" + std::to_string(TI));
      D.toDot(W);
      W.print(std::cout);
    }
    return 0;
  }
  if (O.EmitStats)
    std::printf("; %s on %s: %zu traces, %u static words, %u spill ops\n",
                O.Pipeline.c_str(), M.describe().c_str(),
                C.Traces.Traces.size(), C.TotalWords, C.TotalSpills);
  if (O.EmitAsm) {
    for (unsigned TI = 0; TI != C.Traces.Traces.size(); ++TI) {
      std::printf("trace %u:  ; blocks:", TI);
      for (unsigned B : C.Traces.Traces[TI].Blocks)
        std::printf(" %s", U.block(B).Name.c_str());
      std::printf("\n%s", C.Programs[TI].str().c_str());
    }
  }
  if (O.Run) {
    CFGExecResult R = runCompiledCFG(U, C, O.Inputs);
    if (!R.Ok) {
      std::fprintf(stderr, "run error: %s\n", R.Error.c_str());
      return 1;
    }
    std::printf("; executed %zu blocks in %u cycles\n", R.Path.size(),
                R.Cycles);
    for (const auto &[Name, V] : R.Memory)
      std::printf("%s = %lld\n", Name.c_str(), (long long)V.I);
  }
  return 0;
}
