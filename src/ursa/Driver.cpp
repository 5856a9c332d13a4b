//===- ursa/Driver.cpp - The URSA allocation driver -----------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ursa/Driver.h"

#include "graph/DAGBuilder.h"
#include "obs/Stats.h"
#include "obs/Tracer.h"
#include "sched/RegAssign.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"
#include "ursa/FaultInjector.h"
#include "ursa/IncrementalMeasure.h"
#include "ursa/MeasureCache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <unordered_set>

using namespace ursa;

URSA_STAT(StatRounds, "ursa.driver.rounds", "transformation rounds applied");
URSA_STAT(StatProposalsTried, "ursa.driver.proposals_tried",
          "candidate transforms tentatively applied and remeasured");
URSA_STAT(StatSweeps, "ursa.driver.sweeps", "outer fixpoint sweeps run");
URSA_STAT(StatFallbacks, "ursa.driver.fallback_activations",
          "guaranteed-fit fallback activations");
URSA_STAT(StatStopMaxRounds, "ursa.driver.stop.max_rounds",
          "phases cut off by the MaxRounds safety valve");
URSA_STAT(StatStopMaxTotal, "ursa.driver.stop.max_total_rounds",
          "runs cut off by the MaxTotalRounds safety valve");
URSA_STAT(StatStopTimeBudget, "ursa.driver.stop.time_budget",
          "runs cut off by the TimeBudgetMs safety valve");
URSA_STAT(StatStopLivelock, "ursa.driver.stop.livelock",
          "runs stopped by livelock detection");
URSA_STAT(StatKeptFUSeq, "ursa.transforms.kept.fu_seq",
          "FU-sequencing transforms kept");
URSA_STAT(StatKeptRegSeq, "ursa.transforms.kept.reg_seq",
          "register-sequencing transforms kept");
URSA_STAT(StatKeptSpill, "ursa.transforms.kept.spill",
          "spill transforms kept");
URSA_STAT(StatParallelEvalBatches, "ursa.driver.parallel_eval_batches",
          "proposal-evaluation rounds fanned out to the thread pool");
URSA_STAT(StatIncrementalPromotions, "ursa.driver.incremental.promotions",
          "delta-scored winners promoted to the next round's base via "
          "their delta closure (closure rebuild skipped)");
URSA_STAT(StatIncrementalEvals, "ursa.driver.incremental.delta_evals",
          "proposal evaluations scored by the incremental delta path");
URSA_STAT(StatIncrementalFallbacks, "ursa.driver.incremental.fallbacks",
          "proposal evaluations that fell back to a full rebuild while "
          "incremental measurement was enabled");
URSA_STAT(StatBeamRounds, "ursa.driver.beam.rounds",
          "beam expansion rounds (every live state scored)");
URSA_STAT(StatBeamCandidates, "ursa.driver.beam.candidates",
          "beam (state x proposal) candidates evaluated");
URSA_STAT(StatBeamDedup, "ursa.driver.beam.dedup_hits",
          "beam candidates dropped as duplicate dagFingerprints");
URSA_STAT(StatBeamAdmitted, "ursa.driver.beam.admitted",
          "beam successors admitted into the live set");
URSA_STAT(StatBeamRetired, "ursa.driver.beam.retired",
          "beam states retired with no admissible successor");
URSA_STAT(StatNoopSkipped, "ursa.driver.noop_proposals_skipped",
          "candidates excluded from the reduction because the transform "
          "left the DAG fingerprint unchanged (no-op proposals)");
URSA_STAT(StatPortfolioRuns, "ursa.driver.portfolio.runs",
          "portfolio racer instances completed");
URSA_STAT(StatPortfolioImproved, "ursa.driver.portfolio.improved",
          "portfolio racers that beat the incumbent best allocation");

bool ursa::defaultIncrementalMeasure() {
  const char *E = std::getenv("URSA_INCREMENTAL");
  if (!E)
    return true;
  return !(std::strcmp(E, "0") == 0 || std::strcmp(E, "off") == 0 ||
           std::strcmp(E, "false") == 0);
}

unsigned ursa::defaultMeasurementCacheSize() {
  if (const char *E = std::getenv("URSA_CACHE_SIZE")) {
    int V = std::atoi(E);
    if (V > 0)
      return unsigned(V);
  }
  return 4;
}

unsigned ursa::defaultBeamWidth() {
  if (const char *E = std::getenv("URSA_BEAM")) {
    int V = std::atoi(E);
    if (V > 0)
      return unsigned(V);
  }
  return 1;
}

namespace {

/// The driver's historical name for a measured DAG state; the type now
/// lives in ursa/MeasureCache.h so the compile service can share cached
/// instances across requests.
using State = MeasuredState;

/// Score of a tentatively applied proposal. The paper asks for "the
/// combination of minimizing the critical path and reduction of all
/// excess requirements": proposals are ranked by excess-reduction per
/// unit of critical-path growth (spill traffic counts as extra cost),
/// then by the resulting critical path, preferring sequencing on ties.
struct Score {
  unsigned TotalExcess;
  unsigned Gain;     ///< excess removed by this proposal
  unsigned Cost;     ///< critical-path growth + spill-traffic penalty
  unsigned CritPath; ///< absolute critical path after
  unsigned IsSpill;  ///< paper Section 5: prefer sequencing on a tie
  unsigned NumEdges;

  bool operator<(const Score &O) const {
    // Higher Gain/Cost ratio wins (cross-multiplied, +1 to avoid /0).
    uint64_t L = uint64_t(Gain) * (O.Cost + 1);
    uint64_t R = uint64_t(O.Gain) * (Cost + 1);
    if (L != R)
      return L > R;
    if (CritPath != O.CritPath)
      return CritPath < O.CritPath;
    if (IsSpill != O.IsSpill)
      return IsSpill < O.IsSpill;
    return NumEdges < O.NumEdges;
  }
};

/// Span label for one tentative transform evaluation (static storage:
/// span names must outlive the event buffer).
const char *evalSpanName(TransformProposal::KindT K) {
  switch (K) {
  case TransformProposal::FUSequence:
    return "eval.fu-seq";
  case TransformProposal::RegSequence:
    return "eval.reg-seq";
  case TransformProposal::Spill:
    return "eval.spill";
  }
  return "eval";
}

} // namespace

std::string RoundRecord::describe() const {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), " (excess %u->%u, cp %u)", ExcessBefore,
                ExcessAfter, CritPath);
  return Detail + Buf;
}

/// Collects candidate proposals for the current state, restricted to the
/// resource kinds active in this phase.
static std::vector<TransformProposal>
collectProposals(const DependenceDAG &D, const State &S, bool DoRegs,
                 bool DoFUs, const URSAOptions &Opts) {
  TransformContext Ctx{D, *S.A, *S.HF};
  std::vector<TransformProposal> Props;
  for (unsigned I = 0; I != S.Meas.size(); ++I) {
    const Measurement &M = S.Meas[I];
    unsigned Limit = S.Limits[I].second;
    if (M.MaxRequired <= Limit)
      continue;
    bool IsReg = M.Res.Kind == ResourceId::Reg;
    if ((IsReg && !DoRegs) || (!IsReg && !DoFUs))
      continue;
    // Innermost hammocks first; a couple of sets per resource per round
    // keeps the tentative-application cost bounded. Above the closure
    // threshold the cap is pushed into the search itself (the loop below
    // never consumes more than two sets, so the output is identical —
    // the search just stops scanning hammocks it would have discarded).
    unsigned MaxSets = D.size() > closureThreshold() ? 2 : 0;
    std::vector<ExcessiveChainSet> Sets =
        findExcessiveSets(M, *S.A, *S.HF, Limit, MaxSets);
    unsigned Taken = 0;
    for (const ExcessiveChainSet &E : Sets) {
      if (Taken++ == 2)
        break;
      std::vector<TransformProposal> P;
      if (IsReg) {
        if (Opts.EnableRegSeq)
          P = proposeRegSequencing(Ctx, E);
        if (Opts.EnableSpills) {
          std::vector<TransformProposal> Sp = proposeSpills(Ctx, E);
          P.insert(P.end(), Sp.begin(), Sp.end());
        }
      } else {
        P = proposeFUSequencing(Ctx, E);
      }
      Props.insert(Props.end(), P.begin(), P.end());
    }
  }
  return Props;
}

/// Deterministic tie-break perturbation (URSAOptions::TieBreakSeed):
/// Fisher-Yates shuffle of the proposal list, keyed on the seed mixed with
/// a per-round ordinal so every round draws a distinct permutation.
/// Scoring is order-independent — the serial reduction compares scores,
/// not positions — so only exact-score ties can change winners.
static void shuffleProposals(std::vector<TransformProposal> &Props,
                             uint64_t Seed, uint64_t Ordinal) {
  if (Props.size() < 2)
    return;
  RNG G(Seed ^ (0x9e3779b97f4a7c15ULL * (Ordinal + 1)));
  for (size_t I = Props.size() - 1; I > 0; --I)
    std::swap(Props[I], Props[G.below(I + 1)]);
}

/// Chains every real node into one total order (consecutive in the
/// current topological order), collapsing all parallelism. Afterwards
/// every CanReuse relation is a total order too, so each FU class needs
/// one unit and the register requirement equals sequential liveness.
static unsigned sequentializeTotally(DependenceDAG &D) {
  unsigned Added = 0, Prev = ~0u;
  DAGAnalysis A(D);
  for (unsigned N : A.topoOrder()) {
    if (DependenceDAG::isVirtual(N))
      continue;
    if (Prev != ~0u && D.addEdge(Prev, N, EdgeKind::Sequence))
      ++Added;
    Prev = N;
  }
  D.normalizeVirtualEdges();
  return Added;
}

/// The guaranteed-fit fallback (graceful degradation): total-order
/// sequentialization plus spilling of long-lived values until every
/// measured requirement fits the machine or nothing spillable remains.
/// Termination: each iteration spills a value whose post-spill live range
/// collapses below the candidacy threshold, and reload-defined values are
/// never candidates.
static void guaranteedFitFallback(URSAResult &R, const MachineModel &M,
                                  const MeasureOptions &MO,
                                  MeasurementCache &Cache) {
  URSA_SPAN(FallbackSpan, "ursa.fallback", "driver");
  StatFallbacks.add();
  R.FallbackUsed = true;
  R.SeqEdgesAdded += sequentializeTotally(R.DAG);
  unsigned MaxIter = R.DAG.trace().numVRegs() + 4;
  for (unsigned Iter = 0; Iter != MaxIter; ++Iter) {
    std::shared_ptr<const State> SP = Cache.get(R.DAG, M, MO);
    const State &S = *SP;
    if (S.TotalExcess == 0)
      return;
    const Trace &T = R.DAG.trace();

    // Longest live span in the (total) schedule order, among values not
    // produced by spill code.
    unsigned NV = T.numVRegs();
    std::vector<int> DefPos(NV, -1), LastPos(NV, -1), DefIdx(NV, -1);
    for (unsigned Idx = 0; Idx != T.size(); ++Idx) {
      const Instruction &I = T.instr(Idx);
      int Pos = int(S.A->topoPos(DependenceDAG::nodeOf(Idx)));
      if (I.dest() >= 0) {
        DefPos[I.dest()] = Pos;
        DefIdx[I.dest()] = int(Idx);
        LastPos[I.dest()] = std::max(LastPos[I.dest()], Pos);
      }
      for (unsigned Op = 0; Op != I.numOperands(); ++Op)
        LastPos[I.operand(Op)] = std::max(LastPos[I.operand(Op)], Pos);
    }
    int Victim = -1, BestSpan = 1;
    for (unsigned V = 0; V != NV; ++V) {
      if (DefPos[V] < 0 || isSpillOp(T.instr(DefIdx[V]).opcode()))
        continue;
      int Span = LastPos[V] - DefPos[V];
      if (Span > BestSpan) {
        BestSpan = Span;
        Victim = int(V);
      }
    }
    if (Victim < 0)
      return; // honest: WithinLimits stays false
    Trace T2 = T;
    spillValueInTrace(T2, Victim);
    ++R.SpillsInserted;
    R.DAG = buildDAG(std::move(T2));
    R.SeqEdgesAdded += sequentializeTotally(R.DAG);
  }
}

/// The paper's greedy keep-one-winner loop (Section 5) — the historical
/// driver, and the BeamWidth == 1 case of the beam search. Kept as its
/// own function so the K == 1 contract ("bit-for-bit identical to
/// greedy") is true by construction.
static URSAResult runGreedy(DependenceDAG D, const MachineModel &M,
                            const URSAOptions &Opts) {
  URSA_SPAN(AllocSpan, "ursa.allocate", "driver");
  URSAResult R(std::move(D));
  const bool VerifyOn = Opts.Verify != VerifyLevel::None;
  const bool VerifyFull = Opts.Verify == VerifyLevel::Full;
  auto AddDiag = [&R](Severity Sev, std::string Msg) {
    R.Diags.push_back({Sev, "allocate", std::move(Msg)});
  };
  auto FailVerify = [&R](const Status &St) {
    for (const Diag &Dg : St.diags())
      R.Diags.push_back(Dg);
    R.VerifyFailed = true;
    if (std::find(R.StopReasons.begin(), R.StopReasons.end(),
                  "verify_failed") == R.StopReasons.end())
      R.StopReasons.push_back("verify_failed");
  };
  // Safety-valve accounting: every early stop gets a named counter and a
  // StopReasons entry so neither report format can hide it.
  auto AddStop = [&R](const char *Reason, obs::Statistic &Counter) {
    Counter.add();
    if (std::find(R.StopReasons.begin(), R.StopReasons.end(), Reason) ==
        R.StopReasons.end())
      R.StopReasons.push_back(Reason);
  };

  // Input gate: never run the O(n^2) analyses on a malformed DAG — they
  // assert (or worse) instead of diagnosing.
  if (VerifyOn) {
    Status St = verifyDAGStructure(R.DAG);
    if (!St.isOk()) {
      FailVerify(St);
      return R;
    }
  }

  // The proposal-evaluation pool and the measurement cache live for the
  // whole run. Threads == 1 spawns no workers and evaluates inline, so
  // serial behavior is always recoverable (URSA_THREADS=1), including
  // under fault injection.
  unsigned NumThreads =
      Opts.Threads ? Opts.Threads : ThreadPool::defaultThreads();
  std::unique_ptr<ThreadPool> Pool;
  if (NumThreads > 1)
    Pool = std::make_unique<ThreadPool>(NumThreads);
  MeasurementCache LocalCache(Opts.MeasurementReuse,
                              Opts.MeasurementCacheSize
                                  ? Opts.MeasurementCacheSize
                                  : defaultMeasurementCacheSize());
  MeasurementCache &Cache =
      Opts.SharedCache ? *Opts.SharedCache : LocalCache;

  auto StartTime = std::chrono::steady_clock::now();
  enum class BudgetTrip { None, TotalRounds, Time };
  auto BudgetExceeded = [&]() {
    if (R.Rounds >= Opts.MaxTotalRounds)
      return BudgetTrip::TotalRounds;
    if (Opts.TimeBudgetMs == 0)
      return BudgetTrip::None;
    auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - StartTime)
                  .count();
    return Ms >= long(Opts.TimeBudgetMs) ? BudgetTrip::Time
                                         : BudgetTrip::None;
  };

  std::vector<std::pair<bool, bool>> Phases; // (regs?, fus?)
  switch (Opts.Order) {
  case PhaseOrdering::RegistersFirst:
    Phases = {{true, false}, {false, true}};
    break;
  case PhaseOrdering::FUsFirst:
    Phases = {{false, true}, {true, false}};
    break;
  case PhaseOrdering::Integrated:
    Phases = {{true, true}};
    break;
  }
  // A final integrated sweep mops up residue a single-resource phase got
  // stuck on (e.g. register excess only removable after functional-unit
  // sequencing shortened lifetimes); usually a no-op.
  Phases.push_back({true, true});

  unsigned PrevSweepExcess;
  {
    std::shared_ptr<const State> S0 = Cache.get(R.DAG, M, Opts.Measure);
    R.CritPathBefore = S0->CritPath;
    PrevSweepExcess = S0->TotalExcess;
  }

  // Outer fixpoint: a register round can disturb the functional-unit
  // phase's work and vice versa, so the phase list repeats until a whole
  // pass applies nothing (or the excess is gone). Bail stops transforming
  // — on a verification failure the DAG is corrupt and only diagnostics
  // come back; on budget exhaustion or livelock the current (sound) state
  // proceeds to accounting and, optionally, the guaranteed-fit fallback.
  bool Bail = false;
  unsigned StaleSweeps = 0;
  for (unsigned Sweep = 0; Sweep != 4 && !Bail; ++Sweep) {
  StatSweeps.add();
  unsigned RoundsAtSweepStart = R.Rounds;
  for (auto [DoRegs, DoFUs] : Phases) {
    if (Bail)
      break;
    URSA_SPAN(PhaseSpan,
              DoRegs && DoFUs ? "ursa.phase.integrated"
              : DoRegs        ? "ursa.phase.regs"
                              : "ursa.phase.fus",
              "driver");
    // Plateau patience: a round that keeps the excess flat can still set
    // up the next reduction (wave edges), but only finitely many are
    // tolerated before the residual is left to the assignment phase.
    unsigned Patience = 6;
    // Distinguishes the MaxRounds valve tripping from the usual breaks
    // (converged, plateau, budget): only falling off the end of the loop
    // leaves it set.
    bool HitRoundCap = true;
    for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
      if (BudgetTrip Trip = BudgetExceeded(); Trip != BudgetTrip::None) {
        R.BudgetExhausted = true;
        if (Trip == BudgetTrip::TotalRounds) {
          AddStop("max_total_rounds", StatStopMaxTotal);
          AddDiag(Severity::Warning, "MaxTotalRounds budget exhausted; "
                                     "leaving residual excess");
        } else {
          AddStop("time_budget", StatStopTimeBudget);
          AddDiag(Severity::Warning, "TimeBudgetMs budget exhausted; "
                                     "leaving residual excess");
        }
        Bail = true;
        HitRoundCap = false;
        break;
      }
      if (VerifyOn) {
        Status St = verifyDAGStructure(R.DAG);
        if (!St.isOk()) {
          FailVerify(St);
          Bail = true;
          HitRoundCap = false;
          break;
        }
      }
      auto RoundStart = std::chrono::steady_clock::now();
      std::shared_ptr<const State> SP = Cache.get(R.DAG, M, Opts.Measure);
      const State &S = *SP;
      std::vector<TransformProposal> Props =
          collectProposals(R.DAG, S, DoRegs, DoFUs, Opts);
      if (Props.empty()) {
        HitRoundCap = false;
        break;
      }
      if (Opts.TieBreakSeed)
        shuffleProposals(Props, Opts.TieBreakSeed, R.Rounds);
      StatProposalsTried.add(Props.size());
      // Round-start fingerprint: the no-op filter below and the livelock
      // cross-check after the apply both compare against it.
      const uint64_t RoundFp = dagFingerprint(R.DAG);

      // Tentatively apply each proposal to its own scratch copy and
      // remeasure — the hot loop. Evaluations are independent (pure
      // functions of R.DAG + the proposal; stats are relaxed atomics and
      // spans are scoped per task behind a mutex-guarded buffer), so they
      // fan out across the pool. Scoring happens inside the task; the
      // pick happens in a serial reduction below, in proposal order, so
      // the chosen Best is bit-identical to the serial evaluation.
      //
      // With IncrementalMeasure on, edge-only proposals are scored through
      // the delta engine against the round-start state S: same canonical
      // numbers (widths/excess/critical path), a fraction of the work. A
      // delta-scored evaluation has no State to cache (SS stays null), so
      // if it wins, the next round rebuilds once from R.DAG — one full
      // build per round instead of 1 + P. Spills and unprovable deltas
      // take the full path exactly as before.
      struct Eval {
        Score Sc{~0u, 0, ~0u, ~0u, ~0u, ~0u};
        uint64_t Fp = 0; ///< fingerprint of the transformed scratch DAG
        std::shared_ptr<const State> SS;
        bool Diverged = false; ///< VerifyFull: delta != fresh rebuild
      };
      std::vector<Eval> Evals(Props.size());
      std::unique_ptr<IncrementalMeasurer> Inc;
      if (Opts.IncrementalMeasure)
        Inc = std::make_unique<IncrementalMeasurer>(R.DAG, *S.A, S.Meas,
                                                    S.Limits, Opts.Measure);
      auto EvalOne = [&](size_t I) {
        URSA_SPAN(EvalSpan, evalSpanName(Props[I].Kind), "transform");
        DependenceDAG Scratch = R.DAG;
        ApplyStats ScratchSt = applyTransform(Scratch, Props[I]);
        bool IsSpill = Props[I].Kind == TransformProposal::Spill;
        unsigned NewExcess = 0, NewCrit = 0;
        std::shared_ptr<const State> SS;
        DeltaMeasurement DM;
        if (Inc && Inc->measureDelta(Scratch, Props[I], ScratchSt.Delta, DM)) {
          StatIncrementalEvals.add();
          NewExcess = DM.TotalExcess;
          NewCrit = DM.CritPath;
          if (VerifyFull) {
            // The incremental contract: every delta-derived number must
            // match a fresh rebuild bit for bit.
            State Fresh(Scratch, M, Opts.Measure);
            bool Same = Fresh.TotalExcess == DM.TotalExcess &&
                        Fresh.CritPath == DM.CritPath &&
                        Fresh.Meas.size() == DM.Required.size();
            for (unsigned K = 0; Same && K != Fresh.Meas.size(); ++K)
              Same = Fresh.Meas[K].MaxRequired == DM.Required[K];
            Evals[I].Diverged = !Same;
          }
        } else {
          if (Inc)
            StatIncrementalFallbacks.add();
          SS = std::make_shared<const State>(Scratch, M, Opts.Measure);
          NewExcess = SS->TotalExcess;
          NewCrit = SS->CritPath;
        }
        unsigned Cost =
            (NewCrit > S.CritPath ? NewCrit - S.CritPath : 0) +
            (IsSpill ? 2 : 0); // store+reload occupy FU slots
        Evals[I].Sc =
            Score{NewExcess,
                  S.TotalExcess - std::min(S.TotalExcess, NewExcess),
                  Cost,
                  NewCrit,
                  IsSpill ? 1u : 0u,
                  unsigned(Props[I].SeqEdges.size())};
        Evals[I].Fp = dagFingerprint(Scratch);
        Evals[I].SS = std::move(SS);
      };
      if (Pool && Props.size() > 1) {
        StatParallelEvalBatches.add();
        Pool->parallelFor(Props.size(), EvalOne);
      } else {
        for (size_t I = 0; I != Props.size(); ++I)
          EvalOne(I);
      }

      if (VerifyFull && Inc) {
        bool AnyDiverged = false;
        for (unsigned I = 0; I != Evals.size(); ++I)
          if (Evals[I].Diverged) {
            FailVerify(Status::error(
                "allocate", "incremental measurement diverged from the "
                            "full rebuild for proposal '" +
                                Props[I].describe() + "'"));
            AnyDiverged = true;
          }
        if (AnyDiverged) {
          Bail = true;
          HitRoundCap = false;
          break;
        }
      }

      // Keep the best never-worsening proposal (paper Section 5).
      int Best = -1;
      Score BestScore{~0u, 0, ~0u, ~0u, ~0u, ~0u};
      for (unsigned I = 0; I != Props.size(); ++I) {
        // A proposal whose edges were all already present applies nothing:
        // adopting it would burn a round (or Patience) without changing
        // the DAG, then re-propose itself next round — the fingerprint
        // livelock detector never fired because the apply reports zero
        // claimed progress. Filter such no-ops out of the reduction
        // entirely; the fingerprint of the transformed scratch equals the
        // round-start fingerprint exactly when nothing changed.
        if (Evals[I].Fp == RoundFp) {
          StatNoopSkipped.add();
          continue;
        }
        const Score &Sc = Evals[I].Sc;
        if (Sc.TotalExcess <= S.TotalExcess && Sc < BestScore) {
          BestScore = Sc;
          Best = int(I);
        }
      }
      if (Best < 0) {
        // Every proposal worsens; leave residual to assignment.
        HitRoundCap = false;
        break;
      }
      if (BestScore.TotalExcess == S.TotalExcess) {
        // FU wave edges make monotonic progress (each round orders at
        // least one previously parallel pair), so they ride on MaxRounds
        // alone; other plateaus burn patience.
        if (Props[Best].Kind != TransformProposal::FUSequence) {
          if (Patience == 0) {
            HitRoundCap = false;
            break;
          }
          --Patience;
        }
      } else {
        Patience = 6;
      }

      // Apply, cross-checking claimed progress against the actual DAG
      // delta: a transform that says it changed something but didn't
      // would re-propose itself forever (livelock by lying).
      ApplyStats ASt;
      bool FakedApply =
          Opts.Faults && Opts.Faults->shouldFakeProgress(R.Rounds);
      if (FakedApply)
        ASt.EdgesAdded = unsigned(std::max<size_t>(
            1, Props[Best].SeqEdges.size())); // claimed, never applied
      else
        ASt = applyTransform(R.DAG, Props[Best]);
      // Adopt the winner's remeasure: applying the same proposal to
      // R.DAG reproduces the scratch copy bit for bit, so the next
      // round's start state (and the sweep-end/final accounting) comes
      // from the cache instead of an O(n^2) rebuild. The fingerprint
      // guard keeps a faked apply (FalseProgress injection) or a
      // non-reproducing transform from planting a wrong entry.
      const uint64_t FpAfter = dagFingerprint(R.DAG);
      if (Opts.MeasurementReuse && Evals[Best].SS &&
          FpAfter == Evals[Best].Fp) {
        Cache.insert(Evals[Best].Fp, Evals[Best].SS);
      } else if (Opts.MeasurementReuse && !Evals[Best].SS && !FakedApply &&
                 FpAfter == Evals[Best].Fp) {
        // Delta-scored winner: no full state was built for it, so promote
        // it through its delta closure instead of letting the next round
        // rebuild the O(n^2) reachability from scratch. buildIncremental
        // is bit-identical to a fresh analysis (canonical closure), and
        // the rest of the state (hammocks, measurements, excess) derives
        // from it exactly as a from-scratch build would; the differential
        // test in tests/incremental_test.cpp pins this. A nullptr (edge
        // list not provably a pure delta against the applied DAG) just
        // falls back to the old full rebuild on the next get(). Spill
        // winners replay the journal the real apply just recorded —
        // additions, removals, and appended nodes — through
        // buildIncrementalDelta.
        std::unique_ptr<DAGAnalysis> NA =
            Props[Best].Kind == TransformProposal::Spill
                ? DAGAnalysis::buildIncrementalDelta(R.DAG, *S.A, ASt.Delta)
                : DAGAnalysis::buildIncremental(R.DAG, *S.A,
                                                Props[Best].SeqEdges);
        if (NA) {
          StatIncrementalPromotions.add();
          // Warm the remeasure from the round-start decomposition: the
          // applied transform perturbs the reuse relations by a handful
          // of pairs, so the row-direct matcher only repairs those
          // instead of re-matching ~N pairs from scratch. Width stays
          // canonical for any seed (Measure.h, WarmFrom).
          MeasureOptions WarmMO = Opts.Measure;
          WarmMO.WarmFrom = &S.Meas;
          Cache.insert(FpAfter, std::make_shared<const State>(
                                    R.DAG, M, WarmMO, std::move(NA)));
        }
      }
      R.SeqEdgesAdded += ASt.EdgesAdded;
      R.SpillsInserted += ASt.SpillsInserted;
      ++R.Rounds;
      StatRounds.add();
      switch (Props[Best].Kind) {
      case TransformProposal::FUSequence:
        StatKeptFUSeq.add();
        break;
      case TransformProposal::RegSequence:
        StatKeptRegSeq.add();
        break;
      case TransformProposal::Spill:
        StatKeptSpill.add();
        break;
      }
      {
        RoundRecord RR;
        RR.Round = R.Rounds;
        RR.Kind = Props[Best].Kind;
        RR.Resource = Props[Best].Res.describe();
        RR.Detail = Props[Best].describe();
        RR.ExcessBefore = S.TotalExcess;
        RR.ExcessAfter = BestScore.TotalExcess;
        RR.CritPath = BestScore.CritPath;
        RR.EdgesAdded = ASt.EdgesAdded;
        RR.SpillsInserted = ASt.SpillsInserted;
        RR.ProposalsTried = unsigned(Props.size());
        RR.DurationMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - RoundStart)
                            .count();
        R.RoundLog.push_back(std::move(RR));
      }
      if (VerifyOn && (ASt.EdgesAdded || ASt.SpillsInserted) &&
          FpAfter == RoundFp) {
        AddDiag(Severity::Error,
                "transform '" + Props[Best].describe() +
                    "' reported progress but left the DAG unchanged");
        R.LivelockDetected = true;
        AddStop("livelock", StatStopLivelock);
        Bail = true;
        HitRoundCap = false;
        break;
      }
      // Armed DAG-corruption faults strike after a round, like a buggy
      // in-place mutation would; the next round's gate must catch them.
      if (Opts.Faults)
        Opts.Faults->maybeInjectDAG(R.DAG, R.Rounds);
    }
    if (HitRoundCap) {
      AddStop("max_rounds", StatStopMaxRounds);
      AddDiag(Severity::Warning,
              "MaxRounds safety valve tripped for a phase; leaving "
              "residual excess");
    }

    // Phase boundary: the next phase (or the assignment) inherits this
    // DAG — prove the hand-off.
    if (!Bail && VerifyOn) {
      Status St = verifyDAGStructure(R.DAG);
      if (St.isOk() && VerifyFull) {
        std::shared_ptr<const State> PB = Cache.get(R.DAG, M, Opts.Measure);
        St.merge(verifyMeasurements(PB->Meas));
      }
      if (!St.isOk()) {
        FailVerify(St);
        Bail = true;
      }
    }
  }
  if (Bail)
    break;

  {
    std::shared_ptr<const State> Check = Cache.get(R.DAG, M, Opts.Measure);
    R.ClosureBytesPeak =
        std::max(R.ClosureBytesPeak, Check->A->closureMemoryBytes());
    if (Check->TotalExcess == 0 || R.Rounds == RoundsAtSweepStart)
      break;
    // Livelock detection: sweeps that keep applying transforms without
    // reducing the total excess will not converge; two in a row and the
    // residual goes to the assignment phase (or the fallback) instead.
    if (Check->TotalExcess >= PrevSweepExcess) {
      if (++StaleSweeps >= 2) {
        R.LivelockDetected = true;
        AddStop("livelock", StatStopLivelock);
        AddDiag(Severity::Warning,
                "livelock: consecutive sweeps applied transforms without "
                "reducing total excess");
        break;
      }
    } else {
      StaleSweeps = 0;
    }
    PrevSweepExcess = Check->TotalExcess;
  }
  }

  // A corrupt DAG supports no further measurement — return what we know.
  if (R.VerifyFailed)
    return R;

  if (Opts.GuaranteedFit) {
    std::shared_ptr<const State> Pre = Cache.get(R.DAG, M, Opts.Measure);
    if (Pre->TotalExcess > 0) {
      AddDiag(Severity::Note, "guaranteed-fit fallback: sequentializing "
                              "and spilling the residual excess");
      guaranteedFitFallback(R, M, Opts.Measure, Cache);
    }
  }

  std::shared_ptr<const State> Final = Cache.get(R.DAG, M, Opts.Measure);
  R.CritPathAfter = Final->CritPath;
  R.WithinLimits = Final->TotalExcess == 0;
  R.ClosureRepUsed = closureRepName(Final->A->closureRep());
  R.ClosureBytesPeak =
      std::max(R.ClosureBytesPeak, Final->A->closureMemoryBytes());
  for (const Measurement &Ms : Final->Meas)
    R.FinalRequired.push_back(Ms.MaxRequired);
  return R;
}

namespace {

/// One live state of the beam: a DAG with its measured state plus the
/// path-local accounting that becomes the URSAResult if this state wins.
struct BeamEntry {
  DependenceDAG DAG;
  std::shared_ptr<const State> S;
  uint64_t Fp = 0;
  unsigned Rounds = 0;
  unsigned SeqEdgesAdded = 0;
  unsigned SpillsInserted = 0;
  unsigned Patience = 6;
  std::vector<RoundRecord> RoundLog;

  explicit BeamEntry(DependenceDAG DG) : DAG(std::move(DG)) {}
};

/// Sum of the per-resource requirements — the beam's secondary quality
/// criterion, and exactly the registers+FUs metric the benches gate on.
/// Proposals only exist while some excess remains, so two states with
/// equal excess still differ in how much slack they leave behind.
unsigned sumRequired(const State &S) {
  unsigned T = 0;
  for (const Measurement &Ms : S.Meas)
    T += Ms.MaxRequired;
  return T;
}

/// Strict-weak "is A a better live state than B" for beam ranking and
/// final winner selection. Exact ties fall through to false so stable
/// sorts keep insertion (state, proposal) order — part of the
/// thread-count determinism contract.
bool entryBetter(const BeamEntry &A, const BeamEntry &B) {
  if (A.S->TotalExcess != B.S->TotalExcess)
    return A.S->TotalExcess < B.S->TotalExcess;
  unsigned RA = sumRequired(*A.S), RB = sumRequired(*B.S);
  if (RA != RB)
    return RA < RB;
  if (A.S->CritPath != B.S->CritPath)
    return A.S->CritPath < B.S->CritPath;
  if (A.SpillsInserted != B.SpillsInserted)
    return A.SpillsInserted < B.SpillsInserted;
  return false;
}

} // namespace

/// The beam-search driver (BeamWidth == K >= 2): the greedy loop's exact
/// evaluation machinery — same proposals, same Score, same delta engine,
/// same never-worsening rule — but keeping the top-K live states per
/// round instead of one. States are deduplicated by dagFingerprint within
/// each phase, every (state, proposal) candidate is scored across the
/// thread pool, and the admission reduction runs serially in candidate
/// order, so results are bit-identical at any thread count. The budget
/// unit is the beam expansion round (all live states scored once), so
/// MaxTotalRounds bounds wall-clock the same way it does for greedy.
static URSAResult runBeamSearch(DependenceDAG D, const MachineModel &M,
                                const URSAOptions &Opts, unsigned K) {
  URSA_SPAN(AllocSpan, "ursa.allocate", "driver");
  URSAResult R(std::move(D));
  const bool VerifyOn = Opts.Verify != VerifyLevel::None;
  const bool VerifyFull = Opts.Verify == VerifyLevel::Full;
  auto AddDiag = [&R](Severity Sev, std::string Msg) {
    R.Diags.push_back({Sev, "allocate", std::move(Msg)});
  };
  auto FailVerify = [&R](const Status &St) {
    for (const Diag &Dg : St.diags())
      R.Diags.push_back(Dg);
    R.VerifyFailed = true;
    if (std::find(R.StopReasons.begin(), R.StopReasons.end(),
                  "verify_failed") == R.StopReasons.end())
      R.StopReasons.push_back("verify_failed");
  };
  auto AddStop = [&R](const char *Reason, obs::Statistic &Counter) {
    Counter.add();
    if (std::find(R.StopReasons.begin(), R.StopReasons.end(), Reason) ==
        R.StopReasons.end())
      R.StopReasons.push_back(Reason);
  };

  if (VerifyOn) {
    Status St = verifyDAGStructure(R.DAG);
    if (!St.isOk()) {
      FailVerify(St);
      return R;
    }
  }

  unsigned NumThreads =
      Opts.Threads ? Opts.Threads : ThreadPool::defaultThreads();
  std::unique_ptr<ThreadPool> Pool;
  if (NumThreads > 1)
    Pool = std::make_unique<ThreadPool>(NumThreads);
  // K live start states plus their winning remeasures are all hot at
  // once; make sure a private cache can hold them.
  unsigned CacheSize = Opts.MeasurementCacheSize
                           ? Opts.MeasurementCacheSize
                           : defaultMeasurementCacheSize();
  MeasurementCache LocalCache(Opts.MeasurementReuse,
                              std::max(CacheSize, 2 * K + 2));
  MeasurementCache &Cache =
      Opts.SharedCache ? *Opts.SharedCache : LocalCache;

  auto StartTime = std::chrono::steady_clock::now();
  unsigned BeamSteps = 0; // expansion rounds — the MaxTotalRounds unit
  enum class BudgetTrip { None, TotalRounds, Time };
  auto BudgetExceeded = [&]() {
    if (BeamSteps >= Opts.MaxTotalRounds)
      return BudgetTrip::TotalRounds;
    if (Opts.TimeBudgetMs == 0)
      return BudgetTrip::None;
    auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - StartTime)
                  .count();
    return Ms >= long(Opts.TimeBudgetMs) ? BudgetTrip::Time
                                         : BudgetTrip::None;
  };

  std::vector<std::pair<bool, bool>> Phases; // (regs?, fus?)
  switch (Opts.Order) {
  case PhaseOrdering::RegistersFirst:
    Phases = {{true, false}, {false, true}};
    break;
  case PhaseOrdering::FUsFirst:
    Phases = {{false, true}, {true, false}};
    break;
  case PhaseOrdering::Integrated:
    Phases = {{true, true}};
    break;
  }
  Phases.push_back({true, true});

  std::vector<BeamEntry> Beam;
  {
    BeamEntry E0(R.DAG);
    E0.S = Cache.get(E0.DAG, M, Opts.Measure);
    E0.Fp = dagFingerprint(E0.DAG);
    R.CritPathBefore = E0.S->CritPath;
    Beam.push_back(std::move(E0));
  }
  unsigned PrevSweepExcess = Beam.front().S->TotalExcess;

  bool Bail = false;
  unsigned StaleSweeps = 0;
  for (unsigned Sweep = 0; Sweep != 4 && !Bail; ++Sweep) {
    StatSweeps.add();
    unsigned StepsAtSweepStart = BeamSteps;
    for (auto [DoRegs, DoFUs] : Phases) {
      if (Bail)
        break;
      URSA_SPAN(PhaseSpan,
                DoRegs && DoFUs ? "ursa.phase.integrated"
                : DoRegs        ? "ursa.phase.regs"
                                : "ursa.phase.fus",
                "driver");
      // Per-phase fingerprint dedup: every state that was ever live in
      // this phase blocks re-admission, so the beam cannot cycle.
      std::unordered_set<uint64_t> SeenFps;
      for (BeamEntry &E : Beam) {
        SeenFps.insert(E.Fp);
        E.Patience = 6;
      }
      // States with no admissible successor retire from expansion but
      // stay candidates for the phase-end ranking (a stuck state can
      // still be the best allocation found).
      std::vector<BeamEntry> Retired;
      bool HitRoundCap = true;
      for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
        if (BudgetTrip Trip = BudgetExceeded(); Trip != BudgetTrip::None) {
          R.BudgetExhausted = true;
          if (Trip == BudgetTrip::TotalRounds) {
            AddStop("max_total_rounds", StatStopMaxTotal);
            AddDiag(Severity::Warning, "MaxTotalRounds budget exhausted; "
                                       "leaving residual excess");
          } else {
            AddStop("time_budget", StatStopTimeBudget);
            AddDiag(Severity::Warning, "TimeBudgetMs budget exhausted; "
                                       "leaving residual excess");
          }
          Bail = true;
          HitRoundCap = false;
          break;
        }
        URSA_SPAN(RoundSpan, "ursa.beam.round", "driver");
        auto RoundStart = std::chrono::steady_clock::now();

        // Flatten every live state's proposals into one candidate list;
        // (state, proposal) order is the determinism anchor everywhere
        // below.
        struct Cand {
          unsigned Parent;
          unsigned PropIdx;
        };
        std::vector<std::vector<TransformProposal>> Props(Beam.size());
        std::vector<Cand> Cands;
        for (unsigned P = 0; P != Beam.size(); ++P) {
          if (Beam[P].S->TotalExcess == 0)
            continue; // converged; rides along to the phase-end ranking
          Props[P] =
              collectProposals(Beam[P].DAG, *Beam[P].S, DoRegs, DoFUs, Opts);
          if (Opts.TieBreakSeed)
            shuffleProposals(Props[P], Opts.TieBreakSeed,
                             (uint64_t(BeamSteps) << 8) | P);
          for (unsigned I = 0; I != Props[P].size(); ++I)
            Cands.push_back({P, I});
        }
        if (Cands.empty()) {
          HitRoundCap = false;
          break;
        }
        ++BeamSteps;
        StatBeamRounds.add();
        StatBeamCandidates.add(Cands.size());
        StatProposalsTried.add(Cands.size());

        // One delta engine per parent (shared across pool threads, the
        // same way the greedy loop shares its single engine).
        std::vector<std::unique_ptr<IncrementalMeasurer>> Inc(Beam.size());
        if (Opts.IncrementalMeasure)
          for (unsigned P = 0; P != Beam.size(); ++P)
            if (!Props[P].empty())
              Inc[P] = std::make_unique<IncrementalMeasurer>(
                  Beam[P].DAG, *Beam[P].S->A, Beam[P].S->Meas,
                  Beam[P].S->Limits, Opts.Measure);

        struct CandEval {
          Score Sc{~0u, 0, ~0u, ~0u, ~0u, ~0u};
          uint64_t Fp = 0;
          unsigned SumReq = ~0u;
          std::shared_ptr<const State> SS;
          bool Diverged = false;
        };
        std::vector<CandEval> Evals(Cands.size());
        auto EvalOne = [&](size_t CI) {
          const BeamEntry &Par = Beam[Cands[CI].Parent];
          const TransformProposal &Prop =
              Props[Cands[CI].Parent][Cands[CI].PropIdx];
          URSA_SPAN(EvalSpan, evalSpanName(Prop.Kind), "transform");
          DependenceDAG Scratch = Par.DAG;
          ApplyStats ScratchSt = applyTransform(Scratch, Prop);
          bool IsSpill = Prop.Kind == TransformProposal::Spill;
          unsigned NewExcess = 0, NewCrit = 0, NewSum = 0;
          std::shared_ptr<const State> SS;
          DeltaMeasurement DM;
          IncrementalMeasurer *Eng = Inc[Cands[CI].Parent].get();
          if (Eng && Eng->measureDelta(Scratch, Prop, ScratchSt.Delta, DM)) {
            StatIncrementalEvals.add();
            NewExcess = DM.TotalExcess;
            NewCrit = DM.CritPath;
            for (unsigned W : DM.Required)
              NewSum += W;
            if (VerifyFull) {
              State Fresh(Scratch, M, Opts.Measure);
              bool Same = Fresh.TotalExcess == DM.TotalExcess &&
                          Fresh.CritPath == DM.CritPath &&
                          Fresh.Meas.size() == DM.Required.size();
              for (unsigned Ki = 0; Same && Ki != Fresh.Meas.size(); ++Ki)
                Same = Fresh.Meas[Ki].MaxRequired == DM.Required[Ki];
              Evals[CI].Diverged = !Same;
            }
          } else {
            if (Eng)
              StatIncrementalFallbacks.add();
            SS = std::make_shared<const State>(Scratch, M, Opts.Measure);
            NewExcess = SS->TotalExcess;
            NewCrit = SS->CritPath;
            NewSum = sumRequired(*SS);
          }
          unsigned Cost =
              (NewCrit > Par.S->CritPath ? NewCrit - Par.S->CritPath : 0) +
              (IsSpill ? 2 : 0);
          Evals[CI].Sc =
              Score{NewExcess,
                    Par.S->TotalExcess - std::min(Par.S->TotalExcess, NewExcess),
                    Cost,
                    NewCrit,
                    IsSpill ? 1u : 0u,
                    unsigned(Prop.SeqEdges.size())};
          Evals[CI].SumReq = NewSum;
          Evals[CI].Fp = dagFingerprint(Scratch);
          Evals[CI].SS = std::move(SS);
        };
        if (Pool && Cands.size() > 1) {
          StatParallelEvalBatches.add();
          Pool->parallelFor(Cands.size(), EvalOne);
        } else {
          for (size_t CI = 0; CI != Cands.size(); ++CI)
            EvalOne(CI);
        }

        if (VerifyFull && Opts.IncrementalMeasure) {
          bool AnyDiverged = false;
          for (unsigned CI = 0; CI != Evals.size(); ++CI)
            if (Evals[CI].Diverged) {
              FailVerify(Status::error(
                  "allocate", "incremental measurement diverged from the "
                              "full rebuild for proposal '" +
                                  Props[Cands[CI].Parent][Cands[CI].PropIdx]
                                      .describe() +
                                  "'"));
              AnyDiverged = true;
            }
          if (AnyDiverged) {
            Bail = true;
            HitRoundCap = false;
            break;
          }
        }

        // Serial reduction, part 1: admissibility. The same rules as
        // greedy, per parent — never worsen, skip no-ops, respect the
        // plateau patience of the path — plus the phase-wide fingerprint
        // dedup.
        std::vector<unsigned> Order;
        for (unsigned CI = 0; CI != unsigned(Cands.size()); ++CI) {
          const BeamEntry &Par = Beam[Cands[CI].Parent];
          if (Evals[CI].Fp == Par.Fp) {
            StatNoopSkipped.add();
            continue;
          }
          const Score &Sc = Evals[CI].Sc;
          if (Sc.TotalExcess > Par.S->TotalExcess)
            continue; // never worsen (paper Section 5)
          const TransformProposal &Prop =
              Props[Cands[CI].Parent][Cands[CI].PropIdx];
          if (Sc.TotalExcess == Par.S->TotalExcess &&
              Prop.Kind != TransformProposal::FUSequence && Par.Patience == 0)
            continue; // this path's plateau patience is spent
          if (SeenFps.count(Evals[CI].Fp)) {
            StatBeamDedup.add();
            continue;
          }
          Order.push_back(CI);
        }
        // Part 2: global ranking. Primary keys are the state-quality
        // criteria (excess, then total required — the bench metric), then
        // the greedy Score as the tie-break; stable order falls back to
        // (state, proposal) position.
        std::stable_sort(Order.begin(), Order.end(),
                         [&](unsigned X, unsigned Y) {
                           const CandEval &A = Evals[X], &B = Evals[Y];
                           if (A.Sc.TotalExcess != B.Sc.TotalExcess)
                             return A.Sc.TotalExcess < B.Sc.TotalExcess;
                           if (A.SumReq != B.SumReq)
                             return A.SumReq < B.SumReq;
                           if (A.Sc < B.Sc)
                             return true;
                           if (B.Sc < A.Sc)
                             return false;
                           return false;
                         });

        // Part 3: admit the top K distinct successors. Each one is
        // reproduced by applying its proposal to the parent's DAG; the
        // fingerprint must match the scratch evaluation bit for bit.
        std::vector<BeamEntry> NewBeam;
        std::vector<bool> ParentExpanded(Beam.size(), false);
        for (unsigned CI : Order) {
          if (NewBeam.size() >= K)
            break;
          if (SeenFps.count(Evals[CI].Fp))
            continue; // an equal-fingerprint sibling won earlier this round
          const unsigned P = Cands[CI].Parent;
          BeamEntry &Par = Beam[P];
          const TransformProposal &Prop = Props[P][Cands[CI].PropIdx];
          URSA_SPAN(StateSpan, "ursa.beam.state", "driver");
          BeamEntry Next(Par.DAG);
          ApplyStats ASt = applyTransform(Next.DAG, Prop);
          Next.Fp = dagFingerprint(Next.DAG);
          if (Next.Fp != Evals[CI].Fp) {
            // The transform did not reproduce its evaluated state — a
            // non-deterministic apply. Drop the candidate; corrupt under
            // verification.
            if (VerifyOn) {
              FailVerify(Status::error(
                  "allocate", "transform '" + Prop.describe() +
                                  "' did not reproduce its evaluated state"));
              Bail = true;
              break;
            }
            continue;
          }
          if (VerifyOn) {
            Status St = verifyDAGStructure(Next.DAG);
            if (!St.isOk()) {
              FailVerify(St);
              Bail = true;
              break;
            }
          }
          if (Evals[CI].SS) {
            if (Opts.MeasurementReuse)
              Cache.insert(Next.Fp, Evals[CI].SS);
            Next.S = Evals[CI].SS;
          } else {
            // Delta-scored winner: promote through its delta closure
            // (PR 5's winner-promotion path), once per admitted state.
            // Spill winners replay the journal the apply above recorded.
            std::unique_ptr<DAGAnalysis> NA =
                Prop.Kind == TransformProposal::Spill
                    ? DAGAnalysis::buildIncrementalDelta(Next.DAG, *Par.S->A,
                                                         ASt.Delta)
                    : DAGAnalysis::buildIncremental(Next.DAG, *Par.S->A,
                                                    Prop.SeqEdges);
            if (NA) {
              StatIncrementalPromotions.add();
              MeasureOptions WarmMO = Opts.Measure;
              WarmMO.WarmFrom = &Par.S->Meas; // seed from the parent state
              auto NS = std::make_shared<const State>(Next.DAG, M, WarmMO,
                                                      std::move(NA));
              if (Opts.MeasurementReuse)
                Cache.insert(Next.Fp, NS);
              Next.S = std::move(NS);
            } else {
              Next.S = Cache.get(Next.DAG, M, Opts.Measure);
            }
          }
          Next.Rounds = Par.Rounds + 1;
          Next.SeqEdgesAdded = Par.SeqEdgesAdded + ASt.EdgesAdded;
          Next.SpillsInserted = Par.SpillsInserted + ASt.SpillsInserted;
          bool Plateau = Next.S->TotalExcess == Par.S->TotalExcess;
          Next.Patience = !Plateau ? 6
                          : Prop.Kind == TransformProposal::FUSequence
                              ? Par.Patience
                              : Par.Patience - 1;
          Next.RoundLog = Par.RoundLog;
          {
            RoundRecord RR;
            RR.Round = Next.Rounds;
            RR.Kind = Prop.Kind;
            RR.Resource = Prop.Res.describe();
            RR.Detail = Prop.describe();
            RR.ExcessBefore = Par.S->TotalExcess;
            RR.ExcessAfter = Next.S->TotalExcess;
            RR.CritPath = Next.S->CritPath;
            RR.EdgesAdded = ASt.EdgesAdded;
            RR.SpillsInserted = ASt.SpillsInserted;
            RR.ProposalsTried = unsigned(Cands.size());
            RR.DurationMs = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - RoundStart)
                                .count();
            Next.RoundLog.push_back(std::move(RR));
          }
          SeenFps.insert(Next.Fp);
          ParentExpanded[P] = true;
          StatBeamAdmitted.add();
          StatRounds.add();
          switch (Prop.Kind) {
          case TransformProposal::FUSequence:
            StatKeptFUSeq.add();
            break;
          case TransformProposal::RegSequence:
            StatKeptRegSeq.add();
            break;
          case TransformProposal::Spill:
            StatKeptSpill.add();
            break;
          }
          NewBeam.push_back(std::move(Next));
        }
        if (Bail) {
          HitRoundCap = false;
          break;
        }
        for (unsigned P = 0; P != Beam.size(); ++P)
          if (!ParentExpanded[P]) {
            StatBeamRetired.add();
            Retired.push_back(std::move(Beam[P]));
          }
        if (NewBeam.empty()) {
          Beam.clear();
          HitRoundCap = false;
          break;
        }
        Beam = std::move(NewBeam);
      } // rounds
      if (HitRoundCap) {
        AddStop("max_rounds", StatStopMaxRounds);
        AddDiag(Severity::Warning,
                "MaxRounds safety valve tripped for a phase; leaving "
                "residual excess");
      }
      // Phase end: the next phase starts from the best K of everything
      // that was live when this phase finished.
      for (BeamEntry &E : Retired)
        Beam.push_back(std::move(E));
      std::stable_sort(Beam.begin(), Beam.end(), entryBetter);
      if (Beam.size() > K)
        Beam.erase(Beam.begin() + K, Beam.end());
      // Phase boundary: prove the hand-off on the front-runner (the state
      // the next phase — or the assignment — inherits).
      if (!Bail && VerifyOn && !Beam.empty()) {
        Status St = verifyDAGStructure(Beam.front().DAG);
        if (St.isOk() && VerifyFull)
          St.merge(verifyMeasurements(Beam.front().S->Meas));
        if (!St.isOk()) {
          FailVerify(St);
          Bail = true;
        }
      }
    } // phases
    if (Bail)
      break;

    {
      unsigned BestExcess =
          Beam.empty() ? 0u : Beam.front().S->TotalExcess;
      if (BestExcess == 0 || BeamSteps == StepsAtSweepStart)
        break;
      if (BestExcess >= PrevSweepExcess) {
        if (++StaleSweeps >= 2) {
          R.LivelockDetected = true;
          AddStop("livelock", StatStopLivelock);
          AddDiag(Severity::Warning,
                  "livelock: consecutive sweeps applied transforms without "
                  "reducing total excess");
          break;
        }
      } else {
        StaleSweeps = 0;
      }
      PrevSweepExcess = BestExcess;
    }
  } // sweeps

  if (!Beam.empty()) {
    std::stable_sort(Beam.begin(), Beam.end(), entryBetter);
    BeamEntry &W = Beam.front();
    R.DAG = std::move(W.DAG);
    R.Rounds = W.Rounds;
    R.SeqEdgesAdded = W.SeqEdgesAdded;
    R.SpillsInserted = W.SpillsInserted;
    R.RoundLog = std::move(W.RoundLog);
  }

  if (R.VerifyFailed)
    return R;

  if (Opts.GuaranteedFit) {
    std::shared_ptr<const State> Pre = Cache.get(R.DAG, M, Opts.Measure);
    if (Pre->TotalExcess > 0) {
      AddDiag(Severity::Note, "guaranteed-fit fallback: sequentializing "
                              "and spilling the residual excess");
      guaranteedFitFallback(R, M, Opts.Measure, Cache);
    }
  }

  std::shared_ptr<const State> Final = Cache.get(R.DAG, M, Opts.Measure);
  R.CritPathAfter = Final->CritPath;
  R.WithinLimits = Final->TotalExcess == 0;
  R.ClosureRepUsed = closureRepName(Final->A->closureRep());
  R.ClosureBytesPeak =
      std::max(R.ClosureBytesPeak, Final->A->closureMemoryBytes());
  for (const Measurement &Ms : Final->Meas)
    R.FinalRequired.push_back(Ms.MaxRequired);
  return R;
}

/// Portfolio mode: race independent driver instances over phase
/// orderings — register-first (the paper's recommendation), FU-first,
/// integrated — plus two seeded tie-break perturbations of the configured
/// order, all sharing one measurement cache, and keep the best final
/// allocation. Racers run sequentially in config order, so the whole
/// portfolio is deterministic and each racer warms the next one's cache;
/// TimeBudgetMs bounds the portfolio as a whole (a drained budget keeps
/// the incumbent instead of starting another racer).
static URSAResult runPortfolio(DependenceDAG D, const MachineModel &M,
                               const URSAOptions &Opts, unsigned K) {
  URSA_SPAN(PortSpan, "ursa.portfolio", "driver");
  unsigned CacheSize = Opts.MeasurementCacheSize
                           ? Opts.MeasurementCacheSize
                           : defaultMeasurementCacheSize();
  MeasurementCache LocalCache(Opts.MeasurementReuse,
                              std::max(CacheSize, 4 * K + 8));
  MeasurementCache &Cache =
      Opts.SharedCache ? *Opts.SharedCache : LocalCache;

  struct Racer {
    PhaseOrdering Order;
    uint64_t Seed;
  };
  const uint64_t S1 =
      Opts.TieBreakSeed ? Opts.TieBreakSeed : 0x9e3779b97f4a7c15ULL;
  const uint64_t S2 = S1 * 0xbf58476d1ce4e5b9ULL + 1;
  const Racer Racers[] = {
      {PhaseOrdering::RegistersFirst, 0},
      {PhaseOrdering::FUsFirst, 0},
      {PhaseOrdering::Integrated, 0},
      {Opts.Order, S1},
      {Opts.Order, S2},
  };

  auto StartTime = std::chrono::steady_clock::now();
  auto RemainingMs = [&]() -> long {
    if (Opts.TimeBudgetMs == 0)
      return -1; // unlimited
    auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - StartTime)
                  .count();
    return long(Opts.TimeBudgetMs) - long(Ms);
  };

  const std::vector<std::pair<ResourceId, unsigned>> Limits =
      machineResources(M);
  auto ResultExcess = [&Limits](const URSAResult &Res) {
    unsigned E = 0;
    for (size_t I = 0; I != Res.FinalRequired.size() && I != Limits.size();
         ++I)
      E += Res.FinalRequired[I] > Limits[I].second
               ? Res.FinalRequired[I] - Limits[I].second
               : 0;
    return E;
  };
  auto ResultSumReq = [](const URSAResult &Res) {
    unsigned T = 0;
    for (unsigned V : Res.FinalRequired)
      T += V;
    return T;
  };
  // Lexicographic quality: a verified-sound result always beats a corrupt
  // one, then fewest excess, fewest total required resources (the bench
  // metric), shortest critical path, fewest spills; exact ties keep the
  // earlier racer (deterministic config order).
  auto ResultBetter = [&](const URSAResult &A, const URSAResult &B) {
    if (A.VerifyFailed != B.VerifyFailed)
      return !A.VerifyFailed;
    unsigned EA = ResultExcess(A), EB = ResultExcess(B);
    if (EA != EB)
      return EA < EB;
    unsigned RA = ResultSumReq(A), RB = ResultSumReq(B);
    if (RA != RB)
      return RA < RB;
    if (A.CritPathAfter != B.CritPathAfter)
      return A.CritPathAfter < B.CritPathAfter;
    if (A.SpillsInserted != B.SpillsInserted)
      return A.SpillsInserted < B.SpillsInserted;
    return false;
  };

  std::unique_ptr<URSAResult> BestR;
  for (const Racer &Rc : Racers) {
    long Left = RemainingMs();
    if (BestR && Opts.TimeBudgetMs && Left <= 0)
      break; // budget drained; keep the incumbent
    URSAOptions RO = Opts;
    RO.Portfolio = false;
    RO.Order = Rc.Order;
    RO.TieBreakSeed = Rc.Seed;
    RO.SharedCache = &Cache;
    if (Opts.TimeBudgetMs)
      RO.TimeBudgetMs = unsigned(std::max<long>(1, Left));
    DependenceDAG DC = D; // every racer starts from the pristine input
    URSAResult Ri = K > 1 ? runBeamSearch(std::move(DC), M, RO, K)
                          : runGreedy(std::move(DC), M, RO);
    StatPortfolioRuns.add();
    if (!BestR) {
      BestR = std::make_unique<URSAResult>(std::move(Ri));
    } else if (ResultBetter(Ri, *BestR)) {
      StatPortfolioImproved.add();
      *BestR = std::move(Ri);
    }
  }
  return std::move(*BestR);
}

URSAResult ursa::runURSA(DependenceDAG D, const MachineModel &M,
                         const URSAOptions &Opts) {
  unsigned K = Opts.BeamWidth ? Opts.BeamWidth : defaultBeamWidth();
  if (!K)
    K = 1;
  // Fault-injection contracts (ursa/FaultInjector.h) are defined on the
  // serial-recoverable keep-one loop; armed injectors force it.
  if (Opts.Faults)
    return runGreedy(std::move(D), M, Opts);
  if (Opts.Portfolio)
    return runPortfolio(std::move(D), M, Opts, K);
  if (K > 1)
    return runBeamSearch(std::move(D), M, Opts, K);
  return runGreedy(std::move(D), M, Opts);
}
