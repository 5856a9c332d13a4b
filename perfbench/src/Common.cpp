//===- perfbench/src/Common.cpp - Statistics, counters, output checks -----===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "ir/Interpreter.h"
#include "obs/Stats.h"
#include "support/RNG.h"
#include "vliw/Simulator.h"
#include "workload/Generators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

using namespace perfbench;
using namespace ursa;

namespace {

const char *const WorkloadNames[] = {"fit_layered", "tight_large",
                                     "tight_kernels", "served_mix"};

/// The obs counters the per-layer report names; each must repeat exactly
/// for the same inputs.
const char *const TrackedCounters[] = {
    "order.matching.augmenting_paths",
    "order.matching.hopcroft_karp_phases",
    "order.chains.warm_augments",
    "ursa.measure.resources_measured",
    "ursa.measure.excessive_sets",
    "ursa.driver.rounds",
    "ursa.driver.proposals_tried",
    "ursa.driver.noop_proposals_skipped",
    "ursa.driver.incremental.delta_evals",
    "ursa.driver.incremental.fallbacks",
    "ursa.driver.incremental.promotions",
    "ursa.driver.measure_cache.hits",
    "ursa.driver.measure_cache.misses",
    "ursa.transforms.proposed.fu_seq",
    "ursa.transforms.proposed.reg_seq",
    "ursa.transforms.proposed.spill",
    "ursa.transforms.kept.fu_seq",
    "ursa.transforms.kept.reg_seq",
    "ursa.transforms.kept.spill",
    "ursa.verify.checks_run",
    "sched.finish_and_emit.spill_rounds",
    "vliw.sim.ops_issued",
};

} // namespace

bool perfbench::parseWorkload(const std::string &Name, Workload &Out) {
  for (unsigned I = 0; I != 4; ++I)
    if (Name == WorkloadNames[I]) {
      Out = Workload(I);
      return true;
    }
  return false;
}

const char *perfbench::workloadName(Workload W) {
  return WorkloadNames[unsigned(W)];
}

void Outcome::fail(const std::string &Why, uint64_t Count) {
  Failed += Count;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

void Outcome::set(const std::string &Name, double Value,
                  const std::string &Unit, bool Exact) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M = {Name, Value, Unit, Exact};
      return;
    }
  Metrics.push_back({Name, Value, Unit, Exact});
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

static double percentile(std::vector<double> V, double Pct) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Pct / 100 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double perfbench::tailAt(const std::vector<double> &V, double Pct,
                         const char *What, std::vector<std::string> &Notes) {
  double T = percentile(V, Pct);
  size_t Beyond = 0;
  for (double X : V)
    Beyond += X > T;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "compile_ms_tail is p%g of %zu %s (%zu beyond it)", Pct,
                V.size(), What, Beyond);
  Notes.push_back(Buf);
  return T;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

Counts perfbench::snapshotCounts() {
  Counts C;
  for (const char *Name : TrackedCounters)
    C[Name] = 0;
  for (const obs::StatValue &S : obs::snapshotStats())
    if (auto It = C.find(S.Name); It != C.end())
      It->second = S.Value;
  return C;
}

Counts perfbench::deltaCounts(const Counts &After, const Counts &Before) {
  Counts D;
  for (const auto &[Name, V] : After)
    D[Name] = V - Before.at(Name);
  return D;
}

void perfbench::addCounts(Counts &Into, const Counts &D) {
  for (const auto &[Name, V] : D)
    Into[Name] += V;
}

uint64_t perfbench::closureBytesGauge() {
  for (const obs::StatValue &S : obs::snapshotStats())
    if (S.Name == "ursa.measure.closure_bytes")
      return S.Value;
  return 0;
}

Quality perfbench::qualityOf(const std::vector<unsigned> &Required,
                             const CompileResult &C) {
  return {Required, C.Cycles, C.SpillOps,
          std::hash<std::string>{}(C.Prog->str())};
}

void perfbench::reportQuality(
    const std::vector<std::pair<std::string, Quality>> &Q, Outcome &Out) {
  std::vector<double> Cycles;
  unsigned Required = 0, Spills = 0;
  for (const auto &[Name, Qual] : Q) {
    Cycles.push_back(double(Qual.Cycles));
    Required += Qual.requiredSum();
    Spills += Qual.SpillOps;
    Out.Digest.push_back(Name + " " + Qual.str());
  }
  Out.set("cycles_geomean", geomean(Cycles), "cycles");
  Out.set("required_total", Required, "count", true);
  Out.set("spill_ops", Spills, "count", true);
}

unsigned Quality::requiredSum() const {
  unsigned Sum = 0;
  for (unsigned R : Required)
    Sum += R;
  return Sum;
}

std::string Quality::str() const {
  std::ostringstream OS;
  OS << "required=";
  for (size_t I = 0; I != Required.size(); ++I)
    OS << (I ? "," : "") << Required[I];
  OS << " cycles=" << Cycles << " spill_ops=" << SpillOps << " program="
     << std::hex << ProgHash;
  return OS.str();
}

std::string perfbench::checkProgram(const Trace &Source,
                                    const VLIWProgram &Prog, uint64_t Seed,
                                    bool InjectMismatch, SpanLog *Log,
                                    int Fn, int Pass) {
  for (uint64_t K = 0; K != 2; ++K) {
    RNG Rng((Seed * 7919 + uint64_t(Fn)) * 0x9e3779b97f4a7c15ULL + K);
    MemoryState In = randomInputs(Source, Rng);
    ExecResult Want;
    SimResult Got;
    {
      SpanScope S(Log, "ir.interpret", Fn, Pass);
      Want = interpret(Source, In);
    }
    {
      SpanScope S(Log, "vliw.simulate", Fn, Pass);
      Got = simulate(Prog, In);
    }
    if (InjectMismatch && K == 0)
      Got.Exec.Memory["__injected_mismatch"] = Value::ofInt(1);
    if (!Got.Ok)
      return "simulator rejected the program: " + Got.Error;
    if (!(Got.Exec == Want))
      return "simulated output differs from interpret";
  }
  return "";
}

void perfbench::checkRecord(const Options &O, Outcome &Out) {
  if (O.RecordDir.empty())
    return;
  std::string Now;
  for (const std::string &L : Out.Digest)
    Now += L + "\n";
  std::string Path = O.RecordDir + "/" + workloadName(O.W) + "-seed" +
                     std::to_string(O.Seed) + (O.Small ? "-small" : "") +
                     (O.Trace ? "-traced" : "") + ".txt";
  if (std::ifstream In{Path}) {
    std::stringstream Old;
    Old << In.rdbuf();
    if (Old.str() != Now)
      Out.fail("exact results differ from an earlier run with this seed "
               "(record " + Path + ")");
    return;
  }
  std::error_code EC;
  std::filesystem::create_directories(O.RecordDir, EC);
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OS(Tmp);
    OS << Now;
  }
  std::filesystem::rename(Tmp, Path, EC);
}
