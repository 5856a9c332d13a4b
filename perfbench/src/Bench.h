//===- perfbench/src/Bench.h - Shared types of the compile benchmark ------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The benchmark drives the library only through its public entry points
// (parseTrace, compileURSAChecked, CompileService, the layer functions of
// the traced run, simulate, interpret) and reads the obs stats registry;
// nothing here reaches into library internals.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "ir/Trace.h"
#include "machine/MachineModel.h"
#include "sched/Pipelines.h"
#include "vliw/VLIWProgram.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog;

enum class Workload { FitLayered, TightLarge, TightKernels, ServedMix };

bool parseWorkload(const std::string &Name, Workload &Out);
const char *workloadName(Workload W);

/// One function of a workload, as source text: the benchmark hands the
/// program only text, exactly as a user of ursa_cc or the service would.
struct Function {
  std::string Name;
  std::string Source;
};

/// A workload's generated inputs. For the compile workloads Funcs is one
/// pass (compiled in order, repeatedly); for served_mix it is the pool of
/// distinct sources the request stream draws from.
struct Inputs {
  std::vector<Function> Funcs;
  unsigned Fus = 0, Regs = 0; ///< homogeneous target machine
  /// The tail percentile this workload reports (see tailAt).
  double TailPct = 50;
  ursa::MachineModel machine() const {
    return ursa::MachineModel::homogeneous(Fus, Regs);
  }
};

/// Builds the inputs of \p W from \p Seed (same seed, same inputs).
/// \p Small shrinks every size for the self-test.
Inputs makeInputs(Workload W, uint64_t Seed, bool Small);

struct Options {
  Workload W = Workload::FitLayered;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Small = false;
  /// Self-test fault injection: "" (none), "mismatch" (corrupt one
  /// simulator result before the comparison) or "drift" (compile one
  /// function for another machine on a later pass).
  std::string Inject;
  std::string SpansOut;  ///< traced run: where the span stream goes
  std::string RecordDir; ///< cross-run determinism records ("" = off)
  SpanLog *Log = nullptr; ///< the traced run's span stream
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  bool Exact = false; ///< an integer count: printed without a fraction
};

/// Everything a run produces.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first few failure descriptions
  std::vector<Metric> Metrics;
  /// Exact results that must repeat on every run of this binary with the
  /// same workload and seed (the cross-run determinism gate).
  std::vector<std::string> Digest;
  /// Extra report lines (tail percentile and sample count, bases).
  std::vector<std::string> Notes;

  void fail(const std::string &Why, uint64_t Count = 1);
  /// Adds metric \p Name, or replaces its value when already present.
  void set(const std::string &Name, double Value, const std::string &Unit,
           bool Exact = false);
};

//===--- Timing and statistics --------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

double median(std::vector<double> V);

/// The tail a run reports: nearest-rank percentile \p Pct of \p V, and a
/// report line naming the percentile, the sample count and how many
/// samples lie beyond it. Each workload fixes its percentile
/// (perfbench/README.md) so that a faster build reports the same
/// percentile as a slower one.
double tailAt(const std::vector<double> &V, double Pct, const char *What,
              std::vector<std::string> &Notes);

double geomean(const std::vector<double> &V);

//===--- Observability counters -------------------------------------------===//

/// The obs counters the benchmark reports, by name.
using Counts = std::map<std::string, uint64_t>;

/// Current values of the tracked counters (from obs::snapshotStats).
Counts snapshotCounts();
/// After - Before, per tracked counter.
Counts deltaCounts(const Counts &After, const Counts &Before);
void addCounts(Counts &Into, const Counts &D);
/// Current value of the ursa.measure.closure_bytes gauge.
uint64_t closureBytesGauge();

//===--- Correctness ------------------------------------------------------===//

/// Exact quality of one emitted program, compared across passes and runs.
struct Quality {
  std::vector<unsigned> Required; ///< FinalRequired per machine resource
  unsigned Cycles = 0;
  unsigned SpillOps = 0;
  uint64_t ProgHash = 0; ///< hash of the VLIW program text
  bool operator==(const Quality &O) const {
    return Required == O.Required && Cycles == O.Cycles &&
           SpillOps == O.SpillOps && ProgHash == O.ProgHash;
  }
  unsigned requiredSum() const;
  std::string str() const;
};

/// The quality of a successful compile whose allocation ended at
/// \p Required.
Quality qualityOf(const std::vector<unsigned> &Required,
                  const ursa::CompileResult &C);

/// Sets cycles_geomean, required_total and spill_ops over the distinct
/// functions \p Q (name, quality) and adds each to the digest.
void reportQuality(const std::vector<std::pair<std::string, Quality>> &Q,
                   Outcome &Out);

/// Runs \p Prog under simulate and \p Source under interpret on random
/// inputs seeded from the run's \p Seed and function \p Fn, and compares
/// final memory and branch outcomes. Returns "" when they agree, else a
/// description. Spans go to \p Log when set.
std::string checkProgram(const ursa::Trace &Source,
                         const ursa::VLIWProgram &Prog, uint64_t Seed,
                         bool InjectMismatch, SpanLog *Log, int Fn,
                         int Pass);

/// Compares \p Digest with the record kept for this binary, workload and
/// seed in O.RecordDir (writing it on first use); drift is a failure.
void checkRecord(const Options &O, Outcome &Out);

//===--- The benchmarks ---------------------------------------------------===//

/// fit_layered, tight_large, tight_kernels: parseTrace ->
/// compileURSAChecked, timed per function; or the traced run.
Outcome runCompileBench(const Options &O, const Inputs &In);

} // namespace perfbench

namespace ursa::service {
class CompileService;
}

namespace perfbench {

/// served_mix: a closed-loop request stream through the JSON wire codec
/// into \p Svc, checked against direct compiles of every pool source.
Outcome runServedBench(const Options &O, const Inputs &In,
                       ursa::service::CompileService &Svc);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
