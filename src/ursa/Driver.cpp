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

URSA_STAT(StatRounds, "ursa.driver.rounds",
          "transformations applied (one per admitted successor)");
URSA_STAT(StatProposalsTried, "ursa.driver.proposals_tried",
          "candidate transforms tentatively applied and remeasured");
URSA_STAT(StatSweeps, "ursa.driver.sweeps", "outer fixpoint sweeps run");
URSA_STAT(StatFallbacks, "ursa.driver.fallback_activations",
          "guaranteed-fit fallback activations");
URSA_STAT(StatStopMaxRounds, "ursa.driver.stop.max_rounds",
          "phases cut off by the MaxRounds safety valve");
URSA_STAT(StatStopMaxTotal, "ursa.driver.stop.max_total_rounds",
          "runs cut off by the MaxTotalRounds safety valve");
URSA_STAT(StatStopDeadline, "ursa.driver.stop.deadline",
          "runs cancelled because URSAOptions::Deadline passed");
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
          "driver rounds that admitted a successor (the MaxTotalRounds "
          "unit)");
URSA_STAT(StatBeamDedup, "ursa.driver.beam.dedup_hits",
          "candidates dropped for reaching a state already live in the "
          "phase");
URSA_STAT(StatBeamRetired, "ursa.driver.beam.retired",
          "live states retired without an admitted successor");
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

/// True once \p Opts' deadline has passed.
static bool deadlinePassed(const URSAOptions &Opts) {
  return Opts.Deadline && std::chrono::steady_clock::now() >= *Opts.Deadline;
}

/// Records a deadline cancellation on \p R: the stop reason, its counter
/// and an error diagnostic. The caller returns \p R without finishing it.
static void cancel(URSAResult &R) {
  StatStopDeadline.add();
  R.StopReasons.push_back("deadline");
  R.Diags.push_back(
      {Severity::Error, "allocate", "deadline passed; allocation cancelled"});
}

bool ursa::runWasCancelled(const std::vector<std::string> &StopReasons) {
  return std::find(StopReasons.begin(), StopReasons.end(), "deadline") !=
         StopReasons.end();
}

namespace {

/// One live state of the search: a DAG with its measured state plus the
/// path-local accounting that becomes the URSAResult if this state wins.
struct BeamEntry {
  DependenceDAG DAG;
  /// Measurement of DAG. Null until the next round's gate builds it when
  /// a delta-scored winner was not promoted, an apply did not reproduce
  /// its evaluated state, or a fault hook struck.
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

/// A run's private measurement cache, sized by MeasurementCacheSize
/// (ignored when the caller shares one through SharedCache).
MeasurementCache privateCache(const URSAOptions &Opts) {
  return MeasurementCache(Opts.MeasurementReuse,
                          Opts.MeasurementCacheSize
                              ? Opts.MeasurementCacheSize
                              : defaultMeasurementCacheSize());
}

} // namespace

/// The driver loop (paper Section 5), keeping the K best live states per
/// round; K == 1 is the paper's greedy keep-one-winner loop. Each round
/// gates every live state, tentatively applies every proposal of every
/// state across the thread pool, and reduces the scores serially in
/// (state, proposal) order, so results are bit-identical at any thread
/// count. A successor is admissible when it changes the DAG, never
/// worsens the total excess, and reaches a state not yet live in this
/// phase. Slot 1 goes to the Score-best admissible successor of the open
/// states; slots 2..K rank the open states' other successors by excess,
/// then total required resources, then Score. The budget unit is the
/// round that admits a successor, so at K == 1 MaxTotalRounds counts
/// applied transformations.
static URSAResult runDriver(DependenceDAG D, const MachineModel &M,
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
  MeasurementCache LocalCache = privateCache(Opts);
  MeasurementCache &Cache =
      Opts.SharedCache ? *Opts.SharedCache : LocalCache;
  // A live state's measurement. With MeasurementReuse off every use
  // rebuilds it (the pre-cache behavior the scaling bench measures
  // against) instead of keeping the state an earlier step built.
  auto Measured = [&](BeamEntry &E) -> const State & {
    if (!E.S || !Opts.MeasurementReuse)
      E.S = Cache.get(E.DAG, M, Opts.Measure);
    return *E.S;
  };

  unsigned Steps = 0; // rounds that admitted a successor

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

  std::vector<BeamEntry> Beam;
  Beam.emplace_back(std::move(R.DAG));
  Beam[0].S = Cache.get(Beam[0].DAG, M, Opts.Measure);
  Beam[0].Fp = dagFingerprint(Beam[0].DAG);
  R.CritPathBefore = Beam[0].S->CritPath;
  unsigned PrevSweepExcess = Beam[0].S->TotalExcess;

  // Outer fixpoint: a register round can disturb the functional-unit
  // phase's work and vice versa, so the phase list repeats until a whole
  // pass applies nothing (or the excess is gone). Bail stops transforming
  // — on a verification failure the DAG is corrupt and only diagnostics
  // come back; on a passed deadline the run is cancelled and returns
  // unfinished; on budget exhaustion or livelock the best (sound) state
  // proceeds to accounting and, optionally, the guaranteed-fit fallback.
  bool Bail = false, Cancelled = false;
  unsigned StaleSweeps = 0;
  for (unsigned Sweep = 0; Sweep != 4 && !Bail; ++Sweep) {
    StatSweeps.add();
    unsigned StepsAtSweepStart = Steps;
    for (auto [DoRegs, DoFUs] : Phases) {
      if (Bail)
        break;
      URSA_SPAN(PhaseSpan,
                DoRegs && DoFUs ? "ursa.phase.integrated"
                : DoRegs        ? "ursa.phase.regs"
                                : "ursa.phase.fus",
                "driver");
      // Per-phase fingerprint set: every state that was ever live in this
      // phase blocks re-admission, so the search cannot cycle. Plateau
      // patience restarts with each phase.
      std::unordered_set<uint64_t> SeenFps;
      for (BeamEntry &E : Beam) {
        SeenFps.insert(E.Fp);
        E.Patience = 6;
      }
      // States with no admitted successor retire from expansion but stay
      // candidates for the phase-end ranking (a stuck state can still be
      // the best allocation found).
      std::vector<BeamEntry> Retired;
      bool HitRoundCap = false;
      for (unsigned Round = 0;; ++Round) {
        // Round-start gate on every live state: prove the DAG sound before
        // any analysis runs on it (a fault that struck after the previous
        // round is caught here), then measure it.
        for (BeamEntry &E : Beam) {
          if (VerifyOn) {
            Status St = verifyDAGStructure(E.DAG);
            if (!St.isOk()) {
              FailVerify(St);
              std::swap(E, Beam.front()); // the result reports this state
              Bail = true;
              break;
            }
          }
          Measured(E);
        }
        if (Bail)
          break;
        if (Round == Opts.MaxRounds) {
          HitRoundCap = true;
          break;
        }
        if (Steps >= Opts.MaxTotalRounds) {
          R.BudgetExhausted = true;
          AddStop("max_total_rounds", StatStopMaxTotal);
          AddDiag(Severity::Warning, "MaxTotalRounds budget exhausted; "
                                     "leaving residual excess");
          Bail = true;
          break;
        }
        if (deadlinePassed(Opts)) {
          cancel(R);
          Bail = Cancelled = true;
          break;
        }
        URSA_SPAN(RoundSpan, "ursa.beam.round", "driver");
        auto RoundStart = std::chrono::steady_clock::now();

        // Flatten every live state's proposals into one candidate list;
        // (state, proposal) order is the determinism anchor everywhere
        // below. Each state's shuffle ordinal is its applied-round count
        // with the state index in the high bits.
        struct Cand {
          unsigned Parent;
          unsigned PropIdx;
        };
        std::vector<std::vector<TransformProposal>> Props(Beam.size());
        std::vector<Cand> Cands;
        for (unsigned P = 0; P != Beam.size(); ++P) {
          Props[P] =
              collectProposals(Beam[P].DAG, *Beam[P].S, DoRegs, DoFUs, Opts);
          if (Opts.TieBreakSeed)
            shuffleProposals(Props[P], Opts.TieBreakSeed,
                             (uint64_t(P) << 32) | Beam[P].Rounds);
          for (unsigned I = 0; I != Props[P].size(); ++I)
            Cands.push_back({P, I});
        }
        if (Cands.empty())
          break;
        StatProposalsTried.add(Cands.size());

        // Tentatively apply each candidate to its own scratch copy and
        // remeasure — the hot loop. Evaluations are independent (pure
        // functions of the parent DAG + the proposal; stats are relaxed
        // atomics and spans are scoped per task behind a mutex-guarded
        // buffer), so they fan out across the pool; the pick happens in
        // the serial reduction below.
        //
        // With IncrementalMeasure on, edge-only proposals are scored
        // through the delta engine against the parent's state (one engine
        // per parent, shared across pool threads): same canonical numbers
        // (widths/excess/critical path), a fraction of the work. Spills
        // and unprovable deltas take the full rebuild.
        std::vector<std::unique_ptr<IncrementalMeasurer>> Inc(Beam.size());
        if (Opts.IncrementalMeasure)
          for (unsigned P = 0; P != Beam.size(); ++P)
            if (!Props[P].empty())
              Inc[P] = std::make_unique<IncrementalMeasurer>(
                  Beam[P].DAG, *Beam[P].S->A, Beam[P].S->Meas,
                  Beam[P].S->Limits, Opts.Measure);

        struct CandEval {
          Score Sc{~0u, 0, ~0u, ~0u, ~0u, ~0u};
          uint64_t Fp = 0; ///< fingerprint of the transformed scratch DAG
          unsigned SumReq = ~0u;
          std::shared_ptr<const State> SS; ///< null when delta-scored
          bool Diverged = false; ///< VerifyFull: delta != fresh rebuild
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
              // The incremental contract: every delta-derived number must
              // match a fresh rebuild bit for bit.
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
              (IsSpill ? 2 : 0); // store+reload occupy FU slots
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
          for (unsigned CI = 0; CI != Evals.size(); ++CI)
            if (Evals[CI].Diverged) {
              FailVerify(Status::error(
                  "allocate", "incremental measurement diverged from the "
                              "full rebuild for proposal '" +
                                  Props[Cands[CI].Parent][Cands[CI].PropIdx]
                                      .describe() +
                                  "'"));
              Bail = true;
            }
          if (Bail)
            break;
        }

        // Serial reduction, part 1: admissibility, and each state's best
        // admissible successor by Score (first in proposal order on ties).
        // A proposal whose fingerprint equals its parent's applied nothing
        // — adopting it would burn a round without changing the DAG and
        // then re-propose itself.
        std::vector<int> BestOf(Beam.size(), -1);
        std::vector<unsigned> Admissible;
        for (unsigned CI = 0; CI != unsigned(Cands.size()); ++CI) {
          const BeamEntry &Par = Beam[Cands[CI].Parent];
          const CandEval &Ev = Evals[CI];
          if (Ev.Fp == Par.Fp) {
            StatNoopSkipped.add();
            continue;
          }
          if (Ev.Sc.TotalExcess > Par.S->TotalExcess)
            continue; // never worsen (paper Section 5)
          if (SeenFps.count(Ev.Fp)) {
            StatBeamDedup.add();
            continue;
          }
          Admissible.push_back(CI);
          int &B = BestOf[Cands[CI].Parent];
          if (B < 0 || Ev.Sc < Evals[B].Sc)
            B = int(CI);
        }
        // Plateau patience: a successor that keeps the excess flat can
        // still set up the next reduction, but a path tolerates only
        // finitely many. FU wave edges make monotonic progress (each
        // orders at least one previously parallel pair), so they ride on
        // MaxRounds alone. A state whose best successor is a plateau it
        // has no patience left for is closed this round.
        auto PatienceSpent = [&](unsigned CI) {
          const BeamEntry &Par = Beam[Cands[CI].Parent];
          return Evals[CI].Sc.TotalExcess == Par.S->TotalExcess &&
                 Props[Cands[CI].Parent][Cands[CI].PropIdx].Kind !=
                     TransformProposal::FUSequence &&
                 Par.Patience == 0;
        };
        std::vector<bool> Open(Beam.size(), false);
        int First = -1;
        for (unsigned P = 0; P != Beam.size(); ++P) {
          Open[P] = BestOf[P] >= 0 && !PatienceSpent(unsigned(BestOf[P]));
          if (Open[P] && (First < 0 || Evals[BestOf[P]].Sc < Evals[First].Sc))
            First = BestOf[P];
        }
        // Part 2: slot 1 is the Score-best successor of the open states —
        // at K == 1, exactly the paper's greedy pick. Slots 2..K rank the
        // open states' other admissible successors by the state-quality
        // criteria (excess, then total required — the bench metric), then
        // Score; stable order falls back to (state, proposal) position.
        std::vector<unsigned> Admit;
        if (First >= 0) {
          Admit.push_back(unsigned(First));
          SeenFps.insert(Evals[First].Fp);
          std::vector<unsigned> Rest;
          for (unsigned CI : Admissible)
            if (int(CI) != First && Open[Cands[CI].Parent] &&
                !PatienceSpent(CI))
              Rest.push_back(CI);
          std::stable_sort(Rest.begin(), Rest.end(),
                           [&](unsigned X, unsigned Y) {
                             const CandEval &A = Evals[X], &B = Evals[Y];
                             if (A.Sc.TotalExcess != B.Sc.TotalExcess)
                               return A.Sc.TotalExcess < B.Sc.TotalExcess;
                             if (A.SumReq != B.SumReq)
                               return A.SumReq < B.SumReq;
                             return A.Sc < B.Sc;
                           });
          for (unsigned CI : Rest) {
            if (Admit.size() == K)
              break;
            if (SeenFps.insert(Evals[CI].Fp).second)
              Admit.push_back(CI); // else an equal-fingerprint sibling won
          }
          ++Steps;
          StatBeamRounds.add();
        }

        // Part 3: apply each admitted successor to its parent's DAG. A
        // parent's last successor inherits its DAG and log, so a
        // one-successor round copies neither.
        std::vector<unsigned> ChildrenLeft(Beam.size(), 0);
        for (unsigned CI : Admit)
          ++ChildrenLeft[Cands[CI].Parent];
        std::vector<bool> Expanded(Beam.size(), false);
        std::vector<BeamEntry> NewBeam;
        for (unsigned CI : Admit) {
          if (Bail)
            break;
          const unsigned P = Cands[CI].Parent;
          BeamEntry &Par = Beam[P];
          const TransformProposal &Prop = Props[P][Cands[CI].PropIdx];
          const CandEval &Ev = Evals[CI];
          URSA_SPAN(StateSpan, "ursa.beam.state", "driver");
          const bool LastChild = --ChildrenLeft[P] == 0;
          BeamEntry Next(LastChild ? std::move(Par.DAG) : Par.DAG);
          Next.RoundLog =
              LastChild ? std::move(Par.RoundLog) : Par.RoundLog;
          ApplyStats ASt;
          if (Opts.Faults && Opts.Faults->shouldFakeProgress(Par.Rounds))
            ASt.EdgesAdded = unsigned(std::max<size_t>(
                1, Prop.SeqEdges.size())); // claimed, never applied
          else
            ASt = applyTransform(Next.DAG, Prop);
          Next.Fp = dagFingerprint(Next.DAG);
          if (VerifyOn && (ASt.EdgesAdded || ASt.SpillsInserted) &&
              Next.Fp == Par.Fp) {
            // A transform that says it changed something but didn't would
            // re-propose itself forever (livelock by lying).
            AddDiag(Severity::Error,
                    "transform '" + Prop.describe() +
                        "' reported progress but left the DAG unchanged");
            R.LivelockDetected = true;
            AddStop("livelock", StatStopLivelock);
            Bail = true;
            Next.S = Par.S;
          } else if (Next.Fp != Ev.Fp) {
            // The apply did not reproduce its evaluated state: corrupt
            // under verification; otherwise the next round's gate measures
            // what it did produce.
            if (VerifyOn) {
              FailVerify(Status::error(
                  "allocate", "transform '" + Prop.describe() +
                                  "' did not reproduce its evaluated state"));
              Bail = true;
            }
          } else if (Ev.SS) {
            // Adopt the winner's remeasure: the next round's start state
            // (and the sweep-end/final accounting) comes from it instead
            // of an O(n^2) rebuild.
            Cache.insert(Next.Fp, Ev.SS);
            Next.S = Ev.SS;
          } else if (Opts.MeasurementReuse) {
            // Delta-scored winner: no full state was built for it, so
            // promote it through its delta closure instead of rebuilding
            // the reachability from scratch. buildIncremental is
            // bit-identical to a fresh analysis (canonical closure), and
            // the rest of the state derives from it exactly as a
            // from-scratch build would; tests/incremental_test.cpp pins
            // this. Spill winners replay the journal the apply above
            // recorded. A nullptr (not provably a pure delta) leaves the
            // build to the next round's gate.
            std::unique_ptr<DAGAnalysis> NA =
                Prop.Kind == TransformProposal::Spill
                    ? DAGAnalysis::buildIncrementalDelta(Next.DAG, *Par.S->A,
                                                         ASt.Delta)
                    : DAGAnalysis::buildIncremental(Next.DAG, *Par.S->A,
                                                    Prop.SeqEdges);
            if (NA) {
              StatIncrementalPromotions.add();
              // Warm the remeasure from the parent's decomposition: the
              // transform perturbs the reuse relations by a handful of
              // pairs, so the row-direct matcher only repairs those. Width
              // stays canonical for any seed (Measure.h, WarmFrom).
              MeasureOptions WarmMO = Opts.Measure;
              WarmMO.WarmFrom = &Par.S->Meas;
              Next.S = std::make_shared<const State>(Next.DAG, M, WarmMO,
                                                     std::move(NA));
              Cache.insert(Next.Fp, Next.S);
            }
          }
          Next.Rounds = Par.Rounds + 1;
          Next.SeqEdgesAdded = Par.SeqEdgesAdded + ASt.EdgesAdded;
          Next.SpillsInserted = Par.SpillsInserted + ASt.SpillsInserted;
          Next.Patience = Ev.Sc.TotalExcess != Par.S->TotalExcess ? 6
                          : Prop.Kind == TransformProposal::FUSequence
                              ? Par.Patience
                              : Par.Patience - 1;
          {
            RoundRecord RR;
            RR.Round = Next.Rounds;
            RR.Kind = Prop.Kind;
            RR.Resource = Prop.Res.describe();
            RR.Detail = Prop.describe();
            RR.ExcessBefore = Par.S->TotalExcess;
            RR.ExcessAfter = Ev.Sc.TotalExcess;
            RR.CritPath = Ev.Sc.CritPath;
            RR.EdgesAdded = ASt.EdgesAdded;
            RR.SpillsInserted = ASt.SpillsInserted;
            RR.ProposalsTried = unsigned(Cands.size());
            RR.DurationMs = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - RoundStart)
                                .count();
            Next.RoundLog.push_back(std::move(RR));
          }
          Expanded[P] = true;
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
          // Armed DAG-corruption faults strike after a round, like a buggy
          // in-place mutation would; the next round's gate must catch them.
          if (!Bail && Opts.Faults &&
              Opts.Faults->maybeInjectDAG(Next.DAG, Next.Rounds)) {
            Next.Fp = dagFingerprint(Next.DAG);
            Next.S = nullptr;
          }
          NewBeam.push_back(std::move(Next));
        }
        for (unsigned P = 0; P != Beam.size(); ++P)
          if (!Expanded[P]) {
            StatBeamRetired.add();
            Retired.push_back(std::move(Beam[P]));
          }
        Beam = std::move(NewBeam);
        if (Beam.empty())
          break;
        // A Bail raised above stops at the next round's gate, after the
        // new states are verified and measured.
      } // rounds
      // A corrupt state supports no ranking; it is reported as it stands.
      if (R.VerifyFailed)
        break;
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
      if (!Bail && VerifyOn) {
        Status St = verifyDAGStructure(Beam.front().DAG);
        if (St.isOk() && VerifyFull)
          St.merge(verifyMeasurements(Measured(Beam.front()).Meas));
        if (!St.isOk()) {
          FailVerify(St);
          Bail = true;
        }
      }
    } // phases
    if (Bail)
      break;

    const State &Front = Measured(Beam.front());
    R.ClosureBytesPeak =
        std::max(R.ClosureBytesPeak, Front.A->closureMemoryBytes());
    if (Front.TotalExcess == 0 || Steps == StepsAtSweepStart)
      break;
    // Livelock detection: sweeps that keep applying transforms without
    // reducing the total excess will not converge; two in a row and the
    // residual goes to the assignment phase (or the fallback) instead.
    if (Front.TotalExcess >= PrevSweepExcess) {
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
    PrevSweepExcess = Front.TotalExcess;
  } // sweeps

  // The winner: the front-runner of the last ranking, or the state that
  // failed verification.
  BeamEntry &W = Beam.front();
  R.DAG = std::move(W.DAG);
  R.Rounds = W.Rounds;
  R.SeqEdgesAdded = W.SeqEdgesAdded;
  R.SpillsInserted = W.SpillsInserted;
  R.RoundLog = std::move(W.RoundLog);

  // A corrupt DAG supports no further measurement — return what we know;
  // a cancelled run does no further work.
  if (R.VerifyFailed || Cancelled)
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
/// portfolio is deterministic and each racer warms the next one's cache.
/// A deadline that passes before or during any racer cancels the whole
/// portfolio: keeping the incumbent would change the answer.
static URSAResult runPortfolio(DependenceDAG D, const MachineModel &M,
                               const URSAOptions &Opts, unsigned K) {
  URSA_SPAN(PortSpan, "ursa.portfolio", "driver");
  MeasurementCache LocalCache = privateCache(Opts);
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
    if (deadlinePassed(Opts)) {
      URSAResult Cut(std::move(D));
      cancel(Cut);
      return Cut;
    }
    URSAOptions RO = Opts;
    RO.Portfolio = false;
    RO.Order = Rc.Order;
    RO.TieBreakSeed = Rc.Seed;
    RO.SharedCache = &Cache;
    DependenceDAG DC = D; // every racer starts from the pristine input
    URSAResult Ri = runDriver(std::move(DC), M, RO, K);
    if (runWasCancelled(Ri.StopReasons))
      return Ri;
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
  if (Opts.Portfolio)
    return runPortfolio(std::move(D), M, Opts, K);
  return runDriver(std::move(D), M, Opts, K);
}
