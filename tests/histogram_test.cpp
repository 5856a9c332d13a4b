//===- tests/histogram_test.cpp - obs::Histogram unit tests ---------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Histogram.h"
#include "obs/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

using namespace ursa;
using obs::Histogram;
using obs::HistogramSnapshot;

URSA_HISTO(TestHisto, "test.histo.alpha_us", "histogram test fixture");
URSA_HISTO(TestHistoB, "test.histo.beta_us", "second fixture");

namespace {

/// Fresh state for every test: histograms are process-global statics.
struct HistogramTest : ::testing::Test {
  void SetUp() override {
    obs::setStatsEnabled(true);
    obs::resetHistograms();
  }
  void TearDown() override {
    obs::setStatsEnabled(true);
    obs::resetHistograms();
  }
};

} // namespace

TEST_F(HistogramTest, ExactBucketsBelowSixteen) {
  for (uint64_t V = 0; V != 16; ++V) {
    EXPECT_EQ(Histogram::bucketIndex(V), unsigned(V));
    EXPECT_EQ(Histogram::bucketLo(unsigned(V)), V);
    EXPECT_EQ(Histogram::bucketHi(unsigned(V)), V + 1); // exclusive edge
  }
}

TEST_F(HistogramTest, BucketEdgesContainTheirValues) {
  // Every probe value must land in a bucket whose [lo, hi) contains it,
  // and the bucket's relative width bounds the quantile error (~12.5%).
  for (uint64_t V : {16ull, 17ull, 100ull, 1000ull, 4096ull, 65535ull,
                     1000000ull, 123456789ull, (1ull << 37) - 1}) {
    unsigned I = Histogram::bucketIndex(V);
    EXPECT_GE(V, Histogram::bucketLo(I)) << V;
    EXPECT_LT(V, Histogram::bucketHi(I)) << V;
    double Width = double(Histogram::bucketHi(I) - Histogram::bucketLo(I));
    EXPECT_LE(Width / double(std::max<uint64_t>(1, Histogram::bucketLo(I))),
              0.2601)
        << "bucket too wide at " << V;
  }
}

TEST_F(HistogramTest, PercentileIsUpperBoundWithinBucketError) {
  std::vector<uint64_t> Values;
  for (uint64_t V = 1; V <= 10000; V += 7) {
    Values.push_back(V);
    TestHisto.record(V);
  }
  std::sort(Values.begin(), Values.end());
  HistogramSnapshot S = TestHisto.snapshot();
  ASSERT_EQ(S.Count, Values.size());
  for (double P : {0.5, 0.9, 0.99}) {
    uint64_t True =
        Values[std::min(Values.size() - 1,
                        size_t(P * double(Values.size())))];
    uint64_t Est = S.percentile(P);
    EXPECT_GE(Est, True) << "p" << P * 100 << " not an upper bound";
    EXPECT_LE(double(Est), double(True) * 1.13 + 1)
        << "p" << P * 100 << " beyond the bucket error bound";
  }
  EXPECT_EQ(S.percentile(1.0), S.Max);
}

TEST_F(HistogramTest, MaxClampsPercentile) {
  TestHisto.record(1000);
  HistogramSnapshot S = TestHisto.snapshot();
  // One sample: every quantile is that sample's bucket, clamped to the
  // exact observed max rather than the bucket's upper edge.
  EXPECT_EQ(S.percentile(0.5), 1000u);
  EXPECT_EQ(S.percentile(0.99), 1000u);
  EXPECT_EQ(S.Max, 1000u);
}

TEST_F(HistogramTest, OverflowBucketCatchesHugeValues) {
  uint64_t Huge = 1ull << 40; // beyond the last octave
  TestHisto.record(Huge);
  HistogramSnapshot S = TestHisto.snapshot();
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.Buckets[Histogram::NumBuckets - 1], 1u);
  EXPECT_EQ(S.Max, Huge);
  EXPECT_EQ(S.percentile(0.5), Huge); // clamped to Max, not UINT64_MAX
}

TEST_F(HistogramTest, DisabledSitesRecordNothing) {
  obs::setStatsEnabled(false);
  TestHisto.record(42);
  TestHisto.recordMs(1.5);
  obs::setStatsEnabled(true);
  EXPECT_EQ(TestHisto.count(), 0u);
  TestHisto.record(42);
  EXPECT_EQ(TestHisto.count(), 1u);
}

TEST_F(HistogramTest, RegistrySnapshotFindsAndFilters) {
  TestHisto.record(7);
  bool FoundAlpha = false, FoundBeta = false;
  std::string Prev;
  for (const HistogramSnapshot &S :
       obs::snapshotHistograms(/*NonZeroOnly=*/false)) {
    EXPECT_LE(Prev, S.Name) << "snapshot not sorted";
    Prev = S.Name;
    FoundAlpha |= S.Name == "test.histo.alpha_us";
    FoundBeta |= S.Name == "test.histo.beta_us";
  }
  EXPECT_TRUE(FoundAlpha);
  EXPECT_TRUE(FoundBeta);
  for (const HistogramSnapshot &S :
       obs::snapshotHistograms(/*NonZeroOnly=*/true)) {
    EXPECT_NE(S.Count, 0u);
    EXPECT_NE(S.Name, "test.histo.beta_us"); // empty: filtered out
  }
}

TEST_F(HistogramTest, ResetZeroes) {
  TestHisto.record(3);
  TestHisto.record(1ull << 20);
  obs::resetHistograms();
  HistogramSnapshot S = TestHisto.snapshot();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.Sum, 0u);
  EXPECT_EQ(S.Max, 0u);
  for (uint64_t B : S.Buckets)
    EXPECT_EQ(B, 0u);
}

TEST_F(HistogramTest, ConcurrentRecordingLosesNothing) {
  // Relaxed atomics may interleave but never drop: the count and sum
  // must be exact across threads. TSan runs this too (CI tsan job).
  constexpr unsigned Threads = 8, PerThread = 20000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([T] {
      for (unsigned I = 0; I != PerThread; ++I)
        TestHisto.record((T * PerThread + I) % 5000);
    });
  for (std::thread &T : Ts)
    T.join();
  HistogramSnapshot S = TestHisto.snapshot();
  EXPECT_EQ(S.Count, uint64_t(Threads) * PerThread);
  uint64_t BucketTotal = 0;
  for (uint64_t B : S.Buckets)
    BucketTotal += B;
  EXPECT_EQ(BucketTotal, S.Count);
}
