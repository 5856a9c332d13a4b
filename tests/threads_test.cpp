//===- tests/threads_test.cpp - ThreadPool and parallel driver loop -------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The driver's hot loop evaluates each round's proposals on a small
// worker pool (support/ThreadPool.h) and reuses measurements between
// identical DAG states. Both are only acceptable if they change nothing
// observable: these tests pin the pool's contract (coverage, inline
// serial path, exception propagation) and prove the driver's results are
// bit-identical across thread counts, with and without the measurement
// cache, and under fault injection.
//
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "obs/Stats.h"
#include "support/ThreadPool.h"
#include "ursa/Driver.h"
#include "ursa/FaultInjector.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

using namespace ursa;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  constexpr size_t Count = 10000;
  std::vector<std::atomic<unsigned>> Hits(Count);
  Pool.parallelFor(Count, [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != Count; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPool, SerialPoolStaysOnCallingThread) {
  // ThreadPool(1) must spawn nothing and run inline — that is what makes
  // Threads=1 reproduce pre-pool behavior exactly.
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  std::thread::id Caller = std::this_thread::get_id();
  bool AllInline = true;
  Pool.parallelFor(64, [&](size_t) {
    if (std::this_thread::get_id() != Caller)
      AllInline = false;
  });
  EXPECT_TRUE(AllInline);
}

TEST(ThreadPool, FirstExceptionPropagatesAndBatchDrains) {
  ThreadPool Pool(4);
  std::atomic<size_t> Ran{0};
  auto Run = [&]() {
    Pool.parallelFor(200, [&](size_t I) {
      Ran.fetch_add(1, std::memory_order_relaxed);
      if (I == 42)
        throw std::runtime_error("task 42 failed");
    });
  };
  EXPECT_THROW(Run(), std::runtime_error);
  // The contract drains the whole batch before rethrowing (results must
  // stay deterministic for the reduction).
  EXPECT_EQ(Ran.load(), 200u);
  // The pool stays usable after an exception.
  std::atomic<size_t> After{0};
  Pool.parallelFor(50, [&](size_t) { After.fetch_add(1); });
  EXPECT_EQ(After.load(), 50u);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool Pool(3);
  for (unsigned Batch = 0; Batch != 20; ++Batch) {
    std::atomic<uint64_t> Sum{0};
    Pool.parallelFor(Batch * 7 + 1,
                     [&](size_t I) { Sum.fetch_add(I + 1); });
    uint64_t N = Batch * 7 + 1;
    EXPECT_EQ(Sum.load(), N * (N + 1) / 2);
  }
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool Pool(4);
  bool Ran = false;
  Pool.parallelFor(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPool, DefaultThreadsReadsEnvironment) {
  const char *Old = std::getenv("URSA_THREADS");
  std::string Saved = Old ? Old : "";

  unsetenv("URSA_THREADS");
  EXPECT_EQ(ThreadPool::defaultThreads(), 1u) << "serial by default";
  setenv("URSA_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultThreads(), 3u);
  setenv("URSA_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::defaultThreads(), 1u) << "non-positive falls back";
  setenv("URSA_THREADS", "junk", 1);
  EXPECT_EQ(ThreadPool::defaultThreads(), 1u) << "garbage falls back";

  if (Old)
    setenv("URSA_THREADS", Saved.c_str(), 1);
  else
    unsetenv("URSA_THREADS");
}

//===----------------------------------------------------------------------===//
// Driver determinism across thread counts and cache modes
//===----------------------------------------------------------------------===//

namespace {

/// RoundRecord equality minus wall-clock (DurationMs legitimately
/// varies between runs).
void expectSameRound(const RoundRecord &A, const RoundRecord &B,
                     const char *What) {
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
                      const char *What) {
  EXPECT_EQ(A.Rounds, B.Rounds) << What;
  EXPECT_EQ(A.SeqEdgesAdded, B.SeqEdgesAdded) << What;
  EXPECT_EQ(A.SpillsInserted, B.SpillsInserted) << What;
  EXPECT_EQ(A.WithinLimits, B.WithinLimits) << What;
  EXPECT_EQ(A.FinalRequired, B.FinalRequired) << What;
  EXPECT_EQ(A.CritPathBefore, B.CritPathBefore) << What;
  EXPECT_EQ(A.CritPathAfter, B.CritPathAfter) << What;
  EXPECT_EQ(A.StopReasons, B.StopReasons) << What;
  EXPECT_EQ(A.FallbackUsed, B.FallbackUsed) << What;
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

} // namespace

TEST(DriverThreads, IdenticalResultsAcrossThreadsAndCacheModes) {
  // The acceptance bar for the whole hot-loop change: Threads=1 vs
  // Threads=4, cache on vs off — every combination must produce the
  // same RoundLog and FinalRequired as the pre-change serial driver
  // (Threads=1, MeasurementReuse=false).
  MachineModel M = MachineModel::homogeneous(2, 4);
  GenOptions G;
  G.NumInstrs = 45;
  G.Window = 14;
  for (uint64_t Seed = 1; Seed != 7; ++Seed) {
    G.Seed = Seed;
    DependenceDAG D = buildDAG(generateTrace(G));

    URSAOptions Base;
    Base.Threads = 1;
    Base.MeasurementReuse = false;
    URSAResult Ref = runURSA(D, M, Base);

    struct Config {
      unsigned Threads;
      bool Reuse;
      const char *Name;
    };
    for (Config C : {Config{1, true, "t1+cache"}, Config{4, false, "t4"},
                     Config{4, true, "t4+cache"}}) {
      URSAOptions O;
      O.Threads = C.Threads;
      O.MeasurementReuse = C.Reuse;
      URSAResult R = runURSA(D, M, O);
      expectSameResult(R, Ref, C.Name);
    }
  }
}

TEST(DriverThreads, MeasurementCacheActuallyHits) {
  MachineModel M = MachineModel::homogeneous(2, 4);
  GenOptions G;
  G.NumInstrs = 45;
  G.Window = 14;
  G.Seed = 3;
  DependenceDAG D = buildDAG(generateTrace(G));

  uint64_t Hits0 = statValue("ursa.driver.measure_cache.hits");
  URSAOptions Off;
  Off.MeasurementReuse = false;
  URSAResult R1 = runURSA(D, M, Off);
  EXPECT_GT(R1.Rounds, 0u) << "workload must exercise the round loop";
  EXPECT_EQ(statValue("ursa.driver.measure_cache.hits"), Hits0)
      << "disabled cache must not count hits";

  URSAOptions On;
  On.MeasurementReuse = true;
  runURSA(D, M, On);
  // At minimum the winning proposal's state is reused as the next
  // round's start state, and the sweep-end check reuses the last one.
  EXPECT_GT(statValue("ursa.driver.measure_cache.hits"), Hits0);
}

TEST(DriverThreads, ReuseOffRebuildsAtEveryUse) {
  // MeasurementReuse=false is the scaling bench's rebuild-everything
  // baseline. On a run that applies nothing, the state is built at the
  // start, at each of the three phases' round-start gates, at the sweep
  // end and for the final accounting; with reuse on, once.
  MachineModel M = MachineModel::homogeneous(4, 8);
  DependenceDAG D = buildDAG(figure2Trace());
  auto Builds = [&](bool Reuse) {
    uint64_t N0 = statValue("ursa.measure.resources_measured");
    URSAOptions O;
    O.Threads = 1;
    O.Verify = VerifyLevel::Basic;
    O.MeasurementReuse = Reuse;
    URSAResult R = runURSA(D, M, O);
    EXPECT_EQ(R.Rounds, 0u);
    return statValue("ursa.measure.resources_measured") - N0;
  };
  uint64_t On = Builds(true);
  ASSERT_GT(On, 0u);
  EXPECT_EQ(Builds(false), 6 * On);
}

TEST(DriverThreads, ParallelEvalBatchesCounted) {
  MachineModel M = MachineModel::homogeneous(2, 4);
  GenOptions G;
  G.NumInstrs = 45;
  G.Window = 14;
  G.Seed = 3;
  DependenceDAG D = buildDAG(generateTrace(G));

  uint64_t B0 = statValue("ursa.driver.parallel_eval_batches");
  URSAOptions Serial;
  Serial.Threads = 1;
  runURSA(D, M, Serial);
  EXPECT_EQ(statValue("ursa.driver.parallel_eval_batches"), B0)
      << "serial runs must never touch the pool";

  URSAOptions Par;
  Par.Threads = 4;
  URSAResult R = runURSA(D, M, Par);
  if (R.Rounds > 0) {
    EXPECT_GT(statValue("ursa.driver.parallel_eval_batches"), B0);
  }
}

TEST(DriverThreads, FaultInjectionUnaffectedByThreadCount) {
  // The injector hooks run in the serial section of the round, keyed on
  // the round number, so an armed driver must degrade identically no
  // matter how many workers evaluate proposals.
  MachineModel M = MachineModel::homogeneous(2, 3);
  auto RunWith = [&](unsigned Threads) {
    FaultInjector FI(FaultKind::FalseProgress, 7, 0);
    URSAOptions O;
    O.Verify = VerifyLevel::Basic;
    O.Faults = &FI;
    O.Threads = Threads;
    URSAResult R = runURSA(buildDAG(figure2Trace()), M, O);
    EXPECT_TRUE(FI.fired());
    return R;
  };
  URSAResult Serial = RunWith(1);
  URSAResult Threaded = RunWith(4);
  EXPECT_TRUE(Serial.LivelockDetected);
  EXPECT_TRUE(Threaded.LivelockDetected);
  EXPECT_FALSE(Threaded.VerifyFailed);
  expectSameResult(Threaded, Serial, "false-progress");
}
