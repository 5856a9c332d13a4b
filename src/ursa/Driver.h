//===- ursa/Driver.h - The URSA allocation driver ---------------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level URSA loop (paper Figure 1 and Section 5): measure every
/// resource, and while any requirement exceeds the machine, tentatively
/// apply each candidate transformation, remeasure, and keep the one that
/// best combines excess reduction with critical-path preservation.
///
/// Three phase orderings are supported. The paper recommends applying
/// both register transformations in one phase before the functional-unit
/// phase (Section 5's interaction analysis); the other orders exist for
/// the X3 ablation.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_URSA_DRIVER_H
#define URSA_URSA_DRIVER_H

#include "graph/DAG.h"
#include "machine/MachineModel.h"
#include "support/Status.h"
#include "ursa/Measure.h"
#include "ursa/PipelineVerifier.h"
#include "ursa/Transforms.h"

#include <chrono>
#include <optional>
#include <string>
#include <vector>

namespace ursa {

class FaultInjector;
class MeasurementCache;

/// Default for URSAOptions::IncrementalMeasure: true unless the
/// URSA_INCREMENTAL environment variable is set to "0"/"off"/"false"
/// (read per call, so tests can flip it).
bool defaultIncrementalMeasure();

/// Default measurement-cache capacity: the URSA_CACHE_SIZE environment
/// variable when set to a positive integer, else 4 (read per call).
unsigned defaultMeasurementCacheSize();

/// Default for URSAOptions::BeamWidth: the URSA_BEAM environment variable
/// when set to a positive integer, else 1 (the greedy driver; read per
/// call, so tests can flip it).
unsigned defaultBeamWidth();

/// Which resource's transformations run first.
enum class PhaseOrdering {
  RegistersFirst, ///< the paper's recommendation (Section 5)
  FUsFirst,
  Integrated ///< all transformations compete every round
};

/// Driver knobs.
struct URSAOptions {
  PhaseOrdering Order = PhaseOrdering::RegistersFirst;
  MeasureOptions Measure;
  /// Worker threads for the tentative apply+remeasure of each round's
  /// proposals (the driver's hot loop). 0 resolves through URSA_THREADS
  /// (default 1 = serial). Results are deterministic and bit-identical
  /// across thread counts: proposals are scored independently and reduced
  /// in proposal order, so Threads=1 always reproduces any parallel run.
  unsigned Threads = 0;
  /// Reuse measurements between identical DAG states (keyed on
  /// dagFingerprint): the round-start state, the winning proposal's
  /// remeasure, the sweep-end check, and the pre-fallback/final
  /// accounting share one build instead of five. Off = always rebuild
  /// (the pre-cache behavior, kept for benchmarking and as an escape
  /// hatch).
  bool MeasurementReuse = true;
  /// Score edge-only proposals (FU/register sequencing) through the
  /// incremental measurement engine (ursa/IncrementalMeasure.h): delta
  /// reachability closures plus warm-started chain matchings derived from
  /// the round-start state, instead of a full State build per scratch
  /// copy. Spill proposals and any delta the engine cannot prove safe
  /// fall back to the full rebuild. Results stay bit-identical either
  /// way: the incremental path computes only canonical quantities
  /// (per-resource widths, total excess, critical path) and is used only
  /// to *score* proposals — the winner is always re-measured in full, so
  /// chains, excessive sets, and every downstream decision are unchanged.
  /// Under VerifyLevel::Full each delta is differentially checked against
  /// a fresh rebuild. Defaults through URSA_INCREMENTAL (on unless 0).
  bool IncrementalMeasure = defaultIncrementalMeasure();
  /// Capacity (entries) of the fingerprint-keyed measurement cache; 0
  /// resolves through URSA_CACHE_SIZE, else 4. Deeper phase interleavings
  /// (long sweeps revisiting states) benefit from more entries;
  /// ursa.driver.measure_cache.evictions tells when 4 is too small.
  /// Ignored when SharedCache is set (the owner sized it).
  unsigned MeasurementCacheSize = 0;
  /// Beam width K: how many live states the one driver loop keeps per
  /// round. Every round scores all states x proposals candidates across
  /// the thread pool and reduces them serially in (state, proposal)
  /// order, so results stay bit-identical at any thread count. A
  /// successor is admissible when it changes the DAG, never worsens the
  /// total excess, and reaches a state not yet live in this phase. Slot 1
  /// goes to the Score-best admissible successor of the states whose
  /// plateau patience allows it — at K = 1 this is the paper's greedy
  /// keep-one-winner loop; slots 2..K take the other successors with the
  /// least excess, then the fewest total required resources. The best
  /// final state wins. 0 resolves through URSA_BEAM (default 1).
  unsigned BeamWidth = 0;
  /// Race independent driver instances over phase orderings
  /// (register-first, FU-first, integrated) plus seeded tie-break
  /// perturbations of the configured order, all sharing one measurement
  /// cache, and keep the best final allocation (fewest total required
  /// resources, then critical path). Each instance runs the configured
  /// BeamWidth.
  bool Portfolio = false;
  /// Deterministic tie-break perturbation: when non-zero, each round's
  /// proposal list is shuffled by this seed (mixed with the round
  /// ordinal) before evaluation. Scoring is order-independent; only
  /// exact-tie winners change. 0 = keep collection order (the historical
  /// behavior, bit-for-bit). Portfolio mode sets this on its perturbed
  /// racers.
  uint64_t TieBreakSeed = 0;
  /// Externally-owned measurement cache (ursa/MeasureCache.h), shared
  /// across runs: the compile service injects one server-scope instance
  /// so identical DAG states in different requests reuse each other's
  /// measurements. Null = the driver creates a private per-run cache
  /// sized by MeasurementCacheSize (the historical behavior). States are
  /// immutable and the cache is mutex-guarded, so concurrent runs may
  /// share one instance; results are bit-identical either way.
  MeasurementCache *SharedCache = nullptr;
  /// Safety valve; each round must reduce total excess, so this is
  /// rarely reached.
  unsigned MaxRounds = 128;
  /// Hard budget on rounds that admit a successor, across all phases and
  /// sweeps (at BeamWidth 1, applied transformations). The default
  /// exceeds the worst legitimate case (sweeps * phases * MaxRounds), so
  /// it only fires on livelocked or faulty runs.
  unsigned MaxTotalRounds = 2048;
  /// Cancellation point on the steady clock; none by default. The driver
  /// checks it at every round start and before every portfolio racer.
  /// Once it has passed the run is cancelled: it stops with stop reason
  /// "deadline", skips the guaranteed-fit fallback and carries no
  /// allocation, so compileURSA returns no program. A deadline can take
  /// an answer away but never change one: a run that finishes before its
  /// deadline is bit-identical to a run without one.
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  /// Phase-boundary verification level (see ursa/PipelineVerifier.h).
  /// Defaults from the URSA_VERIFY environment variable.
  VerifyLevel Verify = defaultVerifyLevel();
  /// When the reduction phases leave residual excess (heuristics stuck,
  /// budget exhausted, livelock), force a fit: sequentialize the DAG into
  /// a total order and spill long-lived values until every requirement is
  /// within the machine. Off by default — the paper's design leaves small
  /// residues to the assignment phase.
  bool GuaranteedFit = false;
  /// Testing hook: an armed fault injector (see ursa/FaultInjector.h).
  /// Its hooks run in the serial part of every round, on each admitted
  /// successor, at any BeamWidth and thread count.
  FaultInjector *Faults = nullptr;
  /// Ablation switches (X4): restrict the register transformations to
  /// sequencing only or spilling only.
  bool EnableSpills = true;
  bool EnableRegSeq = true;
};

/// One applied transformation round, structured for telemetry: which
/// transform won on which resource, what it did to the excess and the
/// critical path, and how long the round (measure + tentative evaluation
/// + apply) took. describe() renders one record as a log line.
struct RoundRecord {
  unsigned Round = 0; ///< 1-based ordinal within the run
  TransformProposal::KindT Kind = TransformProposal::FUSequence;
  std::string Resource; ///< ResourceId::describe() of the target resource
  std::string Detail;   ///< the winning proposal's describe() string
  unsigned ExcessBefore = 0; ///< total excess entering the round
  unsigned ExcessAfter = 0;  ///< total excess after the kept transform
  unsigned CritPath = 0;     ///< critical path after the kept transform
  unsigned EdgesAdded = 0;
  unsigned SpillsInserted = 0;
  unsigned ProposalsTried = 0; ///< candidates tentatively applied
  double DurationMs = 0;

  /// The log line ("spill[reg(gpr)]... (excess 5->4, cp 7)").
  std::string describe() const;
};

/// Result of the allocation phase: the transformed DAG, ready for
/// assignment, plus accounting.
struct URSAResult {
  DependenceDAG DAG;
  unsigned Rounds = 0;
  unsigned SeqEdgesAdded = 0;
  unsigned SpillsInserted = 0;
  /// True when every measured requirement fits the machine; otherwise the
  /// assignment phase must handle the residual (paper Section 2).
  bool WithinLimits = false;
  /// Requirement per machine resource after transformation, aligned with
  /// machineResources().
  std::vector<unsigned> FinalRequired;
  /// Unit-latency critical path before/after.
  unsigned CritPathBefore = 0;
  unsigned CritPathAfter = 0;
  /// Per-round telemetry, one record per applied transformation (always
  /// collected; bounded by MaxTotalRounds).
  std::vector<RoundRecord> RoundLog;
  /// Why the reduction loop stopped before removing all excess, when it
  /// did: "max_rounds", "max_total_rounds", "livelock", "verify_failed",
  /// "deadline" — deduplicated, in first-trip order. Empty when the loop
  /// converged (no excess left or no applicable transforms). Both report
  /// formats surface these; the matching ursa.driver.stop.* counters
  /// trend them across runs. "deadline" means the run was cancelled
  /// (runWasCancelled) and its accounting below is incomplete.
  std::vector<std::string> StopReasons;

  /// Closure representation the final analysis used ("dense" or
  /// "blocked") and the largest closure footprint (bytes, both closures
  /// of one analysis) observed across the run's measured states — the
  /// number the 100k-node memory-wall gates watch.
  std::string ClosureRepUsed;
  size_t ClosureBytesPeak = 0;

  /// Guardrail accounting. VerifyFailed means a phase-boundary check
  /// found a broken invariant and allocation stopped early — the DAG must
  /// be considered corrupt and Diags explain why. The other flags record
  /// degradations on an otherwise sound result.
  bool VerifyFailed = false;
  bool LivelockDetected = false;
  bool BudgetExhausted = false;
  bool FallbackUsed = false;
  std::vector<Diag> Diags;

  explicit URSAResult(DependenceDAG D) : DAG(std::move(D)) {}
};

/// Runs URSA's measurement + reduction phases on \p D for machine \p M.
URSAResult runURSA(DependenceDAG D, const MachineModel &M,
                   const URSAOptions &Opts = {});

/// True when \p StopReasons (URSAResult::StopReasons) record a run that
/// URSAOptions::Deadline cancelled.
bool runWasCancelled(const std::vector<std::string> &StopReasons);

} // namespace ursa

#endif // URSA_URSA_DRIVER_H
