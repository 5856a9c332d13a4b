//===- tests/incremental_test.cpp - Incremental re-measurement ------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The incremental measurement engine (delta reachability closures, warm-
// started chain matchings, the driver's delta scoring path) is only
// acceptable if it is invisible: every number it produces must be
// bit-identical to a full rebuild, on every workload, in every driver
// configuration. These tests check each layer differentially against the
// from-scratch implementation, then the whole driver across incremental /
// thread / cache modes, including under fault injection.
//
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "obs/Stats.h"
#include "order/Chains.h"
#include "order/Matching.h"
#include "ursa/Driver.h"
#include "ursa/FaultInjector.h"
#include "support/RNG.h"
#include "ursa/IncrementalMeasure.h"
#include "ursa/MeasureCache.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace ursa;

namespace {

DependenceDAG genDAG(unsigned NumInstrs, unsigned Window, uint64_t Seed) {
  GenOptions G;
  G.NumInstrs = NumInstrs;
  G.Window = Window;
  G.Seed = Seed;
  return buildDAG(generateTrace(G));
}

/// Real-node pairs (u, v) that are independent in \p A — exactly the
/// edges a sequencing transform may add without creating a cycle.
std::vector<std::pair<unsigned, unsigned>>
independentPairs(const DependenceDAG &D, const DAGAnalysis &A) {
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned U = 2; U != D.size(); ++U)
    for (unsigned V = 2; V != D.size(); ++V)
      if (A.independent(U, V))
        Pairs.emplace_back(U, V);
  return Pairs;
}

void expectSameAnalysis(const DAGAnalysis &Got, const DAGAnalysis &Want,
                        unsigned N, const char *What) {
  EXPECT_EQ(Got.topoOrder(), Want.topoOrder()) << What;
  EXPECT_EQ(Got.criticalPathLength(), Want.criticalPathLength()) << What;
  for (unsigned U = 0; U != N; ++U) {
    ASSERT_TRUE(Got.descendants(U) == Want.descendants(U))
        << What << ": descendants of " << U;
    ASSERT_TRUE(Got.ancestors(U) == Want.ancestors(U))
        << What << ": ancestors of " << U;
    EXPECT_EQ(Got.depth(U), Want.depth(U)) << What;
    EXPECT_EQ(Got.height(U), Want.height(U)) << What;
  }
}

void expectSameRound(const RoundRecord &A, const RoundRecord &B,
                     const std::string &What) {
  EXPECT_EQ(A.Round, B.Round) << What;
  EXPECT_EQ(A.Kind, B.Kind) << What;
  EXPECT_EQ(A.Resource, B.Resource) << What;
  EXPECT_EQ(A.Detail, B.Detail) << What;
  EXPECT_EQ(A.ExcessBefore, B.ExcessBefore) << What;
  EXPECT_EQ(A.ExcessAfter, B.ExcessAfter) << What;
  EXPECT_EQ(A.CritPath, B.CritPath) << What;
  EXPECT_EQ(A.EdgesAdded, B.EdgesAdded) << What;
  EXPECT_EQ(A.SpillsInserted, B.SpillsInserted) << What;
  EXPECT_EQ(A.ProposalsTried, B.ProposalsTried) << What;
}

void expectSameResult(const URSAResult &A, const URSAResult &B,
                      const std::string &What) {
  EXPECT_EQ(A.FinalRequired, B.FinalRequired) << What;
  EXPECT_EQ(A.WithinLimits, B.WithinLimits) << What;
  EXPECT_EQ(A.Rounds, B.Rounds) << What;
  EXPECT_EQ(A.SeqEdgesAdded, B.SeqEdgesAdded) << What;
  EXPECT_EQ(A.SpillsInserted, B.SpillsInserted) << What;
  ASSERT_EQ(A.RoundLog.size(), B.RoundLog.size()) << What;
  for (unsigned I = 0; I != A.RoundLog.size(); ++I)
    expectSameRound(A.RoundLog[I], B.RoundLog[I], What);
}

uint64_t statValue(const char *Name) {
  for (const obs::StatValue &S : obs::snapshotStats())
    if (S.Name == Name)
      return S.Value;
  return 0;
}

/// RAII save/restore of one environment variable around a test.
struct ScopedEnv {
  std::string Name, Saved;
  bool Had;
  explicit ScopedEnv(const char *N) : Name(N) {
    const char *Old = std::getenv(N);
    Had = Old != nullptr;
    Saved = Old ? Old : "";
  }
  ~ScopedEnv() {
    if (Had)
      setenv(Name.c_str(), Saved.c_str(), 1);
    else
      unsetenv(Name.c_str());
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Layer 1: delta reachability closures
//===----------------------------------------------------------------------===//

TEST(IncrementalAnalysis, DeltaClosureMatchesFreshBuild) {
  for (uint64_t Seed = 1; Seed != 8; ++Seed) {
    DependenceDAG D = genDAG(30, 10, Seed);
    DAGAnalysis Base(D);
    RNG Rng(Seed * 77 + 1);

    // Fold several random safe edges, one and two at a time — multi-edge
    // proposals must compose sequentially.
    for (unsigned Step = 0; Step != 6; ++Step) {
      auto Pairs = independentPairs(D, Base);
      if (Pairs.empty())
        break;
      std::vector<std::pair<unsigned, unsigned>> Added;
      Added.push_back(Pairs[Rng.below(Pairs.size())]);
      if (Step % 2 == 1 && Pairs.size() > 1)
        Added.push_back(Pairs[Rng.below(Pairs.size())]);

      DependenceDAG Mut = D;
      bool AllSafe = true;
      for (auto [U, V] : Added) {
        // The second edge is drawn against the pre-delta analysis, so it
        // may close a cycle with the first; skip such draws — cycle
        // rejection has its own test.
        DAGAnalysis Cur(Mut);
        if (!Cur.edgeKeepsAcyclic(U, V)) {
          AllSafe = false;
          break;
        }
        Mut.addEdge(U, V, EdgeKind::Sequence);
      }
      if (!AllSafe)
        continue;

      auto Inc = DAGAnalysis::buildIncremental(Mut, Base, Added);
      ASSERT_NE(Inc, nullptr);
      DAGAnalysis Fresh(Mut);
      expectSameAnalysis(*Inc, Fresh, Mut.size(), "delta closure");

      // Continue from the mutated DAG so later steps start deeper.
      D = std::move(Mut);
      Base = DAGAnalysis(D);
    }
  }
}

TEST(IncrementalAnalysis, AlreadyPresentEdgeIsANoOp) {
  DependenceDAG D = genDAG(20, 8, 3);
  DAGAnalysis Base(D);
  // Any real edge's endpoints are already in the closure.
  for (unsigned U = 2; U != D.size(); ++U) {
    unsigned V = Base.descendants(U).findNext(2);
    if (V >= D.size())
      continue;
    auto Inc = DAGAnalysis::buildIncremental(D, Base, {{U, V}});
    ASSERT_NE(Inc, nullptr);
    expectSameAnalysis(*Inc, Base, D.size(), "no-op delta");
    break;
  }
}

TEST(IncrementalAnalysis, RejectsUnsafeDeltas) {
  DependenceDAG D = genDAG(20, 8, 4);
  DAGAnalysis Base(D);

  // A cycle-closing edge: v -> u where u already reaches v.
  bool Checked = false;
  for (unsigned U = 2; U != D.size() && !Checked; ++U) {
    unsigned V = Base.descendants(U).findNext(2);
    if (V >= D.size())
      continue;
    EXPECT_EQ(DAGAnalysis::buildIncremental(D, Base, {{V, U}}), nullptr);
    Checked = true;
  }
  EXPECT_TRUE(Checked);

  // Self loops and out-of-range endpoints.
  EXPECT_EQ(DAGAnalysis::buildIncremental(D, Base, {{2, 2}}), nullptr);
  EXPECT_EQ(DAGAnalysis::buildIncremental(D, Base, {{2, D.size()}}), nullptr);

  // Size mismatch: the base analysis belongs to another DAG.
  DependenceDAG Other = genDAG(25, 8, 5);
  ASSERT_NE(Other.size(), D.size());
  EXPECT_EQ(DAGAnalysis::buildIncremental(Other, Base, {}), nullptr);
}

//===----------------------------------------------------------------------===//
// Layer 2: warm-started matchings
//===----------------------------------------------------------------------===//

TEST(WarmStart, WidthMatchesColdDecomposition) {
  for (uint64_t Seed = 1; Seed != 10; ++Seed) {
    DependenceDAG D = genDAG(35, 12, Seed);
    DAGAnalysis A(D);
    HammockForest HF(D, A);
    RNG Rng(Seed);

    for (ResourceId::KindT Kind : {ResourceId::FU, ResourceId::Reg}) {
      ResourceId Res{Kind, FUKind::Universal, RegClassKind::GPR, true};
      Measurement Base = measureResource(D, A, HF, Res);

      // Perturb the DAG by one safe edge and re-derive the relation.
      auto Pairs = independentPairs(D, A);
      if (Pairs.empty())
        continue;
      auto [U, V] = Pairs[Rng.below(Pairs.size())];
      DependenceDAG Mut = D;
      Mut.addEdge(U, V, EdgeKind::Sequence);
      DAGAnalysis MutA(Mut);
      HammockForest MutHF(Mut, MutA);
      Measurement Fresh = measureResource(Mut, MutA, MutHF, Res);

      // Warm-starting from the *stale* chains must still land on the
      // canonical width (every maximum matching has the same size).
      EXPECT_EQ(chainWidthWarmStart(Fresh.Reuse.Rel, Fresh.Reuse.Active,
                                    Base.Chains),
                Fresh.MaxRequired)
          << "seed " << Seed;

      // The FU relation is the closure restricted to the active set, so
      // the raw closure must give the same width (rows may carry inactive
      // bits; the matcher masks them).
      if (Kind == ResourceId::FU) {
        EXPECT_EQ(chainWidthWarmStart(MutA.reachabilityClosure(),
                                      Fresh.Reuse.Active, Base.Chains),
                  Fresh.MaxRequired)
            << "seed " << Seed;
      }

      // Degenerate warm starts: an empty decomposition (cold start) and
      // the fresh decomposition itself (every pair survives).
      EXPECT_EQ(chainWidthWarmStart(Fresh.Reuse.Rel, Fresh.Reuse.Active,
                                    ChainDecomposition{}),
                Fresh.MaxRequired);
      EXPECT_EQ(chainWidthWarmStart(Fresh.Reuse.Rel, Fresh.Reuse.Active,
                                    Fresh.Chains),
                Fresh.MaxRequired);
    }
  }
}

TEST(WarmStart, SurvivingPairsAreAValidMatching) {
  DependenceDAG D = genDAG(30, 10, 6);
  DAGAnalysis A(D);
  HammockForest HF(D, A);
  ResourceId Res{ResourceId::Reg, FUKind::Universal, RegClassKind::GPR, true};
  Measurement M = measureResource(D, A, HF, Res);

  auto Pairs = survivingMatchedPairs(M.Chains, M.Reuse.Rel);
  // Against its own relation every consecutive chain pair survives, and
  // the pair count is exactly |Active| - width (Fulkerson).
  EXPECT_EQ(Pairs.size(), M.Reuse.Active.size() - M.Chains.width());
  std::vector<uint8_t> SeenL(D.size(), 0), SeenR(D.size(), 0);
  for (auto [L, R] : Pairs) {
    EXPECT_TRUE(M.Reuse.Rel.test(L, R));
    EXPECT_FALSE(SeenL[L]) << "left " << L << " matched twice";
    EXPECT_FALSE(SeenR[R]) << "right " << R << " matched twice";
    SeenL[L] = SeenR[R] = 1;
  }
}

TEST(WarmStart, SeedMatchingFeedsTheIncrementalMatcher) {
  // The IncrementalMatcher warm-start API: seeding the surviving pairs
  // then augmenting with the full relation reaches the canonical size.
  DependenceDAG D = genDAG(30, 10, 2);
  DAGAnalysis A(D);
  HammockForest HF(D, A);
  ResourceId Res{ResourceId::FU, FUKind::Universal, RegClassKind::GPR, true};
  Measurement M = measureResource(D, A, HF, Res);

  std::vector<std::pair<unsigned, unsigned>> AllPairs;
  for (unsigned L : M.Reuse.Active)
    M.Reuse.Rel.row(L).forEach(
        [&](unsigned R) { AllPairs.emplace_back(L, R); });

  IncrementalMatcher Cold(D.size());
  Cold.addBatchAndAugment(AllPairs);

  IncrementalMatcher Warm(D.size());
  Warm.seedMatching(survivingMatchedPairs(M.Chains, M.Reuse.Rel));
  Warm.addBatchAndAugment(AllPairs);

  EXPECT_EQ(Warm.result().Size, Cold.result().Size);
  EXPECT_EQ(Cold.result().Size, M.Reuse.Active.size() - M.MaxRequired);
}

//===----------------------------------------------------------------------===//
// Layer 3: measureDelta vs the full measurement pipeline
//===----------------------------------------------------------------------===//

TEST(IncrementalMeasure, DeltaMatchesFullRebuild) {
  MachineModel M = MachineModel::homogeneous(3, 6);
  auto Limits = machineResources(M);

  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    DependenceDAG D = genDAG(40, 12, Seed);
    RNG Rng(Seed * 13 + 5);

    // A randomized transform sequence: each round scores several edge
    // proposals by delta, checks every one against a fresh rebuild, then
    // commits one and continues from the mutated DAG.
    for (unsigned Round = 0; Round != 4; ++Round) {
      DAGAnalysis A(D);
      HammockForest HF(D, A);
      std::vector<Measurement> Meas = measureAll(D, A, HF, M);
      IncrementalMeasurer Inc(D, A, Meas, Limits, MeasureOptions{});

      auto Pairs = independentPairs(D, A);
      if (Pairs.empty())
        break;
      DependenceDAG Committed = D;
      for (unsigned P = 0; P != 5 && P < Pairs.size(); ++P) {
        TransformProposal Prop;
        Prop.Kind = P % 2 ? TransformProposal::RegSequence
                          : TransformProposal::FUSequence;
        Prop.Res = Limits[P % Limits.size()].first;
        Prop.SeqEdges = {Pairs[Rng.below(Pairs.size())]};

        DependenceDAG Scratch = D;
        applyTransform(Scratch, Prop);

        DeltaMeasurement DM;
        ASSERT_TRUE(Inc.measureDelta(Scratch, Prop, DM))
            << "edge-only proposal must take the delta path";

        DAGAnalysis SA(Scratch);
        HammockForest SHF(Scratch, SA);
        std::vector<Measurement> SMeas = measureAll(Scratch, SA, SHF, M);
        ASSERT_EQ(DM.Required.size(), SMeas.size());
        unsigned WantExcess = 0;
        for (unsigned I = 0; I != SMeas.size(); ++I) {
          EXPECT_EQ(DM.Required[I], SMeas[I].MaxRequired)
              << "resource " << Limits[I].first.describe() << ", seed "
              << Seed;
          if (SMeas[I].MaxRequired > Limits[I].second)
            WantExcess += SMeas[I].MaxRequired - Limits[I].second;
        }
        EXPECT_EQ(DM.CritPath, SA.criticalPathLength());
        EXPECT_EQ(DM.TotalExcess, WantExcess);
        if (P == 0)
          Committed = std::move(Scratch);
      }
      D = std::move(Committed);
    }
  }
}

TEST(IncrementalMeasure, UnsafeDeltasFallBack) {
  MachineModel M = MachineModel::homogeneous(3, 6);
  auto Limits = machineResources(M);
  DependenceDAG D = genDAG(30, 10, 7);
  DAGAnalysis A(D);
  HammockForest HF(D, A);
  std::vector<Measurement> Meas = measureAll(D, A, HF, M);
  IncrementalMeasurer Inc(D, A, Meas, Limits, MeasureOptions{});
  DeltaMeasurement DM;

  // Spill proposals insert nodes — never a pure edge delta.
  TransformProposal Spill;
  Spill.Kind = TransformProposal::Spill;
  EXPECT_FALSE(Inc.measureDelta(D, Spill, DM));

  // Size mismatch: the scratch grew relative to the base.
  DependenceDAG Bigger = genDAG(35, 10, 7);
  ASSERT_NE(Bigger.size(), D.size());
  TransformProposal Seq;
  Seq.Kind = TransformProposal::FUSequence;
  EXPECT_FALSE(Inc.measureDelta(Bigger, Seq, DM));

  // A cycle-closing edge against the base closure.
  for (unsigned U = 2; U != D.size(); ++U) {
    unsigned V = A.descendants(U).findNext(2);
    if (V >= D.size())
      continue;
    Seq.SeqEdges = {{V, U}};
    EXPECT_FALSE(Inc.measureDelta(D, Seq, DM));
    break;
  }
}

//===----------------------------------------------------------------------===//
// Layer 4: the driver, end to end
//===----------------------------------------------------------------------===//

TEST(DriverIncremental, BitIdenticalAcrossAllModes) {
  // The acceptance bar: incremental scoring on/off, serial vs threaded,
  // cache on/off — every combination reproduces the reference serial
  // driver exactly, on workloads tight enough to transform and spill.
  GenOptions G;
  G.NumInstrs = 45;
  G.Window = 14;
  MachineModel M = MachineModel::homogeneous(2, 4);

  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    G.Seed = Seed;
    DependenceDAG D = buildDAG(generateTrace(G));

    URSAOptions RefOpts;
    RefOpts.Threads = 1;
    RefOpts.MeasurementReuse = false;
    RefOpts.IncrementalMeasure = false;
    URSAResult Ref = runURSA(D, M, RefOpts);

    struct Mode {
      const char *Name;
      unsigned Threads;
      bool Reuse;
      bool Inc;
    };
    for (const Mode &Md : {Mode{"inc serial", 1, false, true},
                           Mode{"inc serial cache", 1, true, true},
                           Mode{"inc threads4", 4, true, true},
                           Mode{"full threads4", 4, true, false}}) {
      URSAOptions O;
      O.Threads = Md.Threads;
      O.MeasurementReuse = Md.Reuse;
      O.IncrementalMeasure = Md.Inc;
      URSAResult R = runURSA(D, M, O);
      expectSameResult(R, Ref,
                       std::string(Md.Name) + " seed " +
                           std::to_string(Seed));
    }
  }
}

TEST(DriverIncremental, FaultInjectionStaysIdentical) {
  // A persistently lying transform (FalseProgress) exercises livelock
  // detection and graceful degradation; the delta path must not change a
  // single decision along that road either.
  GenOptions G;
  G.NumInstrs = 45;
  G.Window = 14;
  G.Seed = 3;
  DependenceDAG D = buildDAG(generateTrace(G));
  MachineModel M = MachineModel::homogeneous(2, 4);

  auto RunWith = [&](bool Inc, unsigned Threads) {
    FaultInjector FI(FaultKind::FalseProgress, 7, 0);
    URSAOptions O;
    O.Threads = Threads;
    O.IncrementalMeasure = Inc;
    O.Faults = &FI;
    return runURSA(D, M, O);
  };
  URSAResult Ref = RunWith(false, 1);
  expectSameResult(RunWith(true, 1), Ref, "inc serial under faults");
  expectSameResult(RunWith(true, 4), Ref, "inc threads4 under faults");
}

TEST(DriverIncremental, VerifyFullChecksEveryDelta) {
  // Under VerifyLevel::Full the driver differentially compares each delta
  // against a fresh build and fails the run on any divergence — so a
  // clean pass is a machine-checked equivalence proof over the whole run.
  GenOptions G;
  G.NumInstrs = 45;
  G.Window = 14;
  G.Seed = 2;
  DependenceDAG D = buildDAG(generateTrace(G));
  MachineModel M = MachineModel::homogeneous(2, 4);

  URSAOptions O;
  O.IncrementalMeasure = true;
  O.Verify = VerifyLevel::Full;
  URSAResult R = runURSA(D, M, O);
  EXPECT_FALSE(R.VerifyFailed)
      << "incremental scoring diverged from the full rebuild";

  URSAOptions Plain;
  Plain.IncrementalMeasure = true;
  Plain.Verify = VerifyLevel::None;
  expectSameResult(runURSA(D, M, Plain), R, "verify vs plain");
}

TEST(DriverIncremental, StatsCountDeltasAndFallbacks) {
  GenOptions G;
  G.NumInstrs = 45;
  G.Window = 14;
  G.Seed = 1;
  DependenceDAG D = buildDAG(generateTrace(G));
  // Two registers force spill proposals into the mix: spills now ride the
  // journaled EdgeDelta path (ursa.incremental.spill_deltas), sequencing
  // proposals take the classic pure-edge delta path. Nothing in this run
  // needs a fallback rebuild.
  MachineModel M = MachineModel::homogeneous(2, 2);

  uint64_t Deltas0 = statValue("ursa.driver.incremental.delta_evals");
  uint64_t Spills0 = statValue("ursa.incremental.spill_deltas");
  URSAOptions O;
  O.IncrementalMeasure = true;
  URSAResult R = runURSA(D, M, O);
  ASSERT_FALSE(R.RoundLog.empty());
  EXPECT_GT(statValue("ursa.driver.incremental.delta_evals"), Deltas0);
  EXPECT_GT(statValue("ursa.incremental.spill_deltas"), Spills0);

  // With the engine off, neither counter moves.
  uint64_t Deltas1 = statValue("ursa.driver.incremental.delta_evals");
  uint64_t Spills1 = statValue("ursa.incremental.spill_deltas");
  O.IncrementalMeasure = false;
  runURSA(D, M, O);
  EXPECT_EQ(statValue("ursa.driver.incremental.delta_evals"), Deltas1);
  EXPECT_EQ(statValue("ursa.incremental.spill_deltas"), Spills1);
}

//===----------------------------------------------------------------------===//
// Knobs: options and environment defaults
//===----------------------------------------------------------------------===//

TEST(DriverIncremental, EnvironmentDefaults) {
  ScopedEnv IncEnv("URSA_INCREMENTAL");
  unsetenv("URSA_INCREMENTAL");
  EXPECT_TRUE(defaultIncrementalMeasure()) << "on by default";
  for (const char *Off : {"0", "off", "false"}) {
    setenv("URSA_INCREMENTAL", Off, 1);
    EXPECT_FALSE(defaultIncrementalMeasure()) << Off;
  }
  setenv("URSA_INCREMENTAL", "1", 1);
  EXPECT_TRUE(defaultIncrementalMeasure());

  ScopedEnv CacheEnv("URSA_CACHE_SIZE");
  unsetenv("URSA_CACHE_SIZE");
  EXPECT_EQ(defaultMeasurementCacheSize(), 4u) << "MRU-4 by default";
  setenv("URSA_CACHE_SIZE", "9", 1);
  EXPECT_EQ(defaultMeasurementCacheSize(), 9u);
  setenv("URSA_CACHE_SIZE", "0", 1);
  EXPECT_EQ(defaultMeasurementCacheSize(), 4u) << "non-positive falls back";
  setenv("URSA_CACHE_SIZE", "junk", 1);
  EXPECT_EQ(defaultMeasurementCacheSize(), 4u) << "garbage falls back";
}

TEST(DriverIncremental, CacheSizeChangesNothingButEvictions) {
  GenOptions G;
  G.NumInstrs = 45;
  G.Window = 14;
  G.Seed = 4;
  DependenceDAG D = buildDAG(generateTrace(G));
  MachineModel M = MachineModel::homogeneous(2, 4);

  URSAOptions Wide;
  Wide.MeasurementCacheSize = 8;
  URSAResult Ref = runURSA(D, M, Wide);

  uint64_t Evict0 = statValue("ursa.driver.measure_cache.evictions");
  URSAOptions Tiny;
  Tiny.MeasurementCacheSize = 1;
  expectSameResult(runURSA(D, M, Tiny), Ref, "cache size 1 vs 8");
  if (!Ref.RoundLog.empty()) {
    EXPECT_GT(statValue("ursa.driver.measure_cache.evictions"), Evict0)
        << "a one-entry cache must evict on a transforming run";
  }
}

//===----------------------------------------------------------------------===//
// Layer 5: winner promotion through the delta closure
//===----------------------------------------------------------------------===//

TEST(WinnerPromotion, PromotedStateMatchesFreshBuild) {
  // When a delta-scored winner is applied, the driver promotes its delta
  // closure into the next round's base state (MeasuredState built from
  // DAGAnalysis::buildIncremental output) instead of re-deriving the
  // analysis from scratch. Everything downstream of the analysis must be
  // bit-identical to the from-scratch constructor.
  MachineModel M = MachineModel::homogeneous(2, 3);
  MeasureOptions MO;
  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    DependenceDAG D = genDAG(30, 10, Seed);
    DAGAnalysis Base(D);
    std::vector<std::pair<unsigned, unsigned>> Pairs =
        independentPairs(D, Base);
    if (Pairs.empty())
      continue;
    std::vector<std::pair<unsigned, unsigned>> Added{
        Pairs[Seed % Pairs.size()]};
    D.addEdge(Added[0].first, Added[0].second, EdgeKind::Sequence);

    std::unique_ptr<DAGAnalysis> NA =
        DAGAnalysis::buildIncremental(D, Base, Added);
    ASSERT_TRUE(NA) << "single independent-pair edge must be provable";

    MeasuredState Fresh(D, M, MO);
    MeasuredState Promoted(D, M, MO, std::move(NA));
    expectSameAnalysis(*Promoted.A, *Fresh.A, D.size(), "promoted analysis");
    EXPECT_EQ(Promoted.TotalExcess, Fresh.TotalExcess);
    EXPECT_EQ(Promoted.CritPath, Fresh.CritPath);
    ASSERT_EQ(Promoted.Limits.size(), Fresh.Limits.size());
    for (size_t I = 0; I != Fresh.Limits.size(); ++I) {
      EXPECT_TRUE(Promoted.Limits[I].first == Fresh.Limits[I].first);
      EXPECT_EQ(Promoted.Limits[I].second, Fresh.Limits[I].second);
    }
    ASSERT_EQ(Promoted.Meas.size(), Fresh.Meas.size());
    for (size_t I = 0; I != Fresh.Meas.size(); ++I) {
      EXPECT_TRUE(Promoted.Meas[I].Res == Fresh.Meas[I].Res);
      EXPECT_EQ(Promoted.Meas[I].MaxRequired, Fresh.Meas[I].MaxRequired);
      EXPECT_EQ(Promoted.Meas[I].Chains.Chains, Fresh.Meas[I].Chains.Chains);
      EXPECT_EQ(Promoted.Meas[I].Chains.ChainOf, Fresh.Meas[I].Chains.ChainOf);
    }
  }
}

TEST(WinnerPromotion, DriverPromotesAndStaysBitIdentical) {
  // Differential acceptance for the promotion path: reuse+incremental
  // (promotions active) against the no-reuse reference, with the
  // promotions counter proving the path actually ran.
  MachineModel M = MachineModel::homogeneous(2, 3);
  uint64_t Before = statValue("ursa.driver.incremental.promotions");
  for (uint64_t Seed : {3u, 7u, 11u}) {
    DependenceDAG D = genDAG(40, 8, Seed);

    URSAOptions On;
    On.MeasurementReuse = true;
    On.IncrementalMeasure = true;
    URSAResult A = runURSA(D, M, On);

    URSAOptions Off;
    Off.MeasurementReuse = false;
    Off.IncrementalMeasure = true;
    URSAResult B = runURSA(D, M, Off);
    expectSameResult(A, B, "promotion seed " + std::to_string(Seed));

    // And against the fully conventional driver.
    URSAOptions Ref;
    Ref.MeasurementReuse = false;
    Ref.IncrementalMeasure = false;
    expectSameResult(runURSA(D, M, Ref), A,
                     "reference seed " + std::to_string(Seed));
  }
  EXPECT_GT(statValue("ursa.driver.incremental.promotions"), Before)
      << "no delta-scored winner was promoted on any seed";
}
