//===- obs/Histogram.cpp - Log-bucketed latency histograms ----------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Histogram.h"

#include <algorithm>
#include <cmath>
#include <mutex>

using namespace ursa;
using namespace ursa::obs;

namespace {

struct HistoRegistry {
  std::mutex Mu;
  std::vector<Histogram *> Histos;
};

HistoRegistry &registry() {
  static HistoRegistry R; // function-local: safe across static-init order
  return R;
}

/// floor(log2(V)) for V >= 1.
unsigned ilog2(uint64_t V) {
  unsigned O = 0;
  while (V >>= 1)
    ++O;
  return O;
}

} // namespace

Histogram::Histogram(const char *HName, const char *HDesc)
    : Name(HName), Desc(HDesc) {
  HistoRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Histos.push_back(this);
}

unsigned Histogram::bucketIndex(uint64_t V) {
  if (V < 16)
    return unsigned(V);
  unsigned O = ilog2(V);
  if (O > LastOctave)
    return NumBuckets - 1; // overflow bucket
  unsigned Sub = unsigned((V >> (O - 2)) & 3);
  return 16 + (O - FirstOctave) * 4 + Sub;
}

uint64_t Histogram::bucketLo(unsigned I) {
  if (I < 16)
    return I;
  if (I >= NumBuckets - 1)
    return uint64_t(1) << (LastOctave + 1);
  unsigned O = FirstOctave + (I - 16) / 4;
  unsigned Sub = (I - 16) % 4;
  return (uint64_t(1) << O) + uint64_t(Sub) * (uint64_t(1) << (O - 2));
}

uint64_t Histogram::bucketHi(unsigned I) {
  if (I >= NumBuckets - 1)
    return UINT64_MAX;
  if (I < 16)
    return I + 1;
  unsigned O = FirstOctave + (I - 16) / 4;
  return bucketLo(I) + (uint64_t(1) << (O - 2));
}

void Histogram::recordAlways(uint64_t V) {
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(V, std::memory_order_relaxed);
  uint64_t Cur = Max.load(std::memory_order_relaxed);
  while (V > Cur &&
         !Max.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
  Buckets[bucketIndex(V)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Name = Name;
  S.Desc = Desc;
  S.Buckets.resize(NumBuckets);
  // Buckets first, then the totals: a racing record() may make the
  // totals momentarily exceed the bucket sum, never the reverse by more
  // than the in-flight adds — quantiles stay bounded either way.
  for (unsigned I = 0; I != NumBuckets; ++I)
    S.Buckets[I] = Buckets[I].load(std::memory_order_relaxed);
  S.Count = Count.load(std::memory_order_relaxed);
  S.Sum = Sum.load(std::memory_order_relaxed);
  S.Max = Max.load(std::memory_order_relaxed);
  return S;
}

void Histogram::reset() {
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
}

uint64_t HistogramSnapshot::percentile(double P) const {
  uint64_t Total = 0;
  for (uint64_t B : Buckets)
    Total += B;
  if (Total == 0)
    return 0;
  P = std::min(1.0, std::max(0.0, P));
  uint64_t Rank = uint64_t(std::ceil(P * double(Total)));
  if (Rank == 0)
    Rank = 1;
  uint64_t Seen = 0;
  for (unsigned I = 0; I != Buckets.size(); ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank) {
      uint64_t Hi = Histogram::bucketHi(I);
      return Max && Max < Hi ? Max : Hi;
    }
  }
  return Max;
}

std::vector<HistogramSnapshot> obs::snapshotHistograms(bool NonZeroOnly) {
  HistoRegistry &R = registry();
  std::vector<HistogramSnapshot> Out;
  {
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (const Histogram *H : R.Histos) {
      if (NonZeroOnly && H->count() == 0)
        continue;
      Out.push_back(H->snapshot());
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const HistogramSnapshot &A, const HistogramSnapshot &B) {
              return A.Name < B.Name;
            });
  return Out;
}

void obs::resetHistograms() {
  HistoRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (Histogram *H : R.Histos)
    H->reset();
}
