//===- obs/Histogram.h - Log-bucketed latency histograms --------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-cheap latency histograms, registered beside `Statistic` in the
/// process-wide registry: each instrumentation site defines one static
/// `Histogram` with a dotted name ("ursa.service.e2e_us") and records
/// observations through record(). Recording is a handful of relaxed
/// atomic adds behind the same global enable flag the counters use, so a
/// disabled site costs one predictable branch and an enabled one never
/// takes a lock (bench_obs_overhead keeps this honest).
///
/// Buckets are logarithmic with four linear sub-buckets per octave:
/// values 0..15 get exact buckets, larger values land in a bucket whose
/// width is 1/4 of its octave, so any quantile read from the buckets is
/// an upper bound at most ~12.5% above the true value. Values beyond
/// 2^38-1 (about 76 hours in microseconds) fall into one overflow
/// bucket.
///
/// Units are the site's business; the convention (docs/OBSERVABILITY.md)
/// is microseconds with a `_us` name suffix.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_OBS_HISTOGRAM_H
#define URSA_OBS_HISTOGRAM_H

#include "obs/Stats.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ursa::obs {

/// One registered histogram's data, decoupled from the live atomics.
struct HistogramSnapshot {
  std::string Name;
  std::string Desc;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;
  std::vector<uint64_t> Buckets; ///< dense, Histogram::NumBuckets long

  /// Upper-bound estimate of the \p P quantile (P in [0,1]): the upper
  /// edge of the bucket holding the ceil(P*Count)-th observation,
  /// clamped to the observed Max. 0 when empty.
  uint64_t percentile(double P) const;
};

/// One named histogram. Define at file scope via URSA_HISTO; the
/// constructor registers it with the process-wide registry.
class Histogram {
public:
  /// 0..15 exact, then 4 sub-buckets per octave for octaves 4..37, then
  /// one overflow bucket.
  static constexpr unsigned FirstOctave = 4;
  static constexpr unsigned LastOctave = 37;
  static constexpr unsigned NumBuckets =
      16 + (LastOctave - FirstOctave + 1) * 4 + 1;

  Histogram(const char *Name, const char *Desc);

  /// Records one observation (relaxed atomics; sites may race, totals
  /// stay exact). One branch when stats are disabled.
  void record(uint64_t V) {
    if (statsEnabled())
      recordAlways(V);
  }
  /// Milliseconds convenience for callers holding a double.
  void recordMs(double Ms) {
    if (Ms > 0)
      record(uint64_t(Ms * 1000.0));
  }
  void recordAlways(uint64_t V);

  HistogramSnapshot snapshot() const;
  void reset();

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  const char *name() const { return Name; }
  const char *desc() const { return Desc; }

  /// The bucket an observation of \p V lands in.
  static unsigned bucketIndex(uint64_t V);
  /// Inclusive lower edge of bucket \p I.
  static uint64_t bucketLo(unsigned I);
  /// Exclusive upper edge of bucket \p I (UINT64_MAX for the overflow
  /// bucket).
  static uint64_t bucketHi(unsigned I);

private:
  const char *Name;
  const char *Desc;
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
};

/// Every registered histogram, sorted by name. With \p NonZeroOnly only
/// histograms that have recorded something are returned.
std::vector<HistogramSnapshot> snapshotHistograms(bool NonZeroOnly = false);

/// Zeroes every registered histogram (between bench measurements/tests).
void resetHistograms();

} // namespace ursa::obs

/// Defines a file-local histogram. Use at namespace scope:
///   URSA_HISTO(HistE2E, "ursa.service.e2e_us", "end-to-end latency");
///   ... HistE2E.record(Us);
#define URSA_HISTO(Var, Name, Desc)                                           \
  static ::ursa::obs::Histogram Var(Name, Desc)

#endif // URSA_OBS_HISTOGRAM_H
