//===- perfbench/src/Spans.cpp - In-memory span stream of the traced run --===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

namespace {
thread_local std::vector<int> OpenStack;
} // namespace

uint64_t perfbench::nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

int SpanLog::open(const char *Name, int Fn, int Pass, int Parent) {
  bool Nested = Parent == -2;
  if (Nested)
    Parent = OpenStack.empty() ? -1 : OpenStack.back();
  int Id;
  {
    std::lock_guard<std::mutex> L(Mu);
    Id = int(Spans.size());
    Spans.push_back({Name, nowNs(), 0, Parent, Fn, Pass});
  }
  if (Nested)
    OpenStack.push_back(Id);
  return Id;
}

void SpanLog::close(int Id) {
  uint64_t T = nowNs();
  if (!OpenStack.empty() && OpenStack.back() == Id)
    OpenStack.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Id].EndNs = T;
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> L(Mu);
  return Spans;
}

std::vector<SpanLog::PassTimes> SpanLog::perPass(unsigned Passes) const {
  std::vector<SpanRecord> S = snapshot();
  std::vector<double> ChildMs(S.size(), 0.0);
  for (const SpanRecord &R : S)
    if (R.Parent >= 0)
      ChildMs[R.Parent] += R.ms();
  std::vector<PassTimes> Out(Passes);
  for (size_t I = 0; I != S.size(); ++I)
    if (S[I].Pass >= 0 && unsigned(S[I].Pass) < Passes) {
      Out[S[I].Pass].TotalMs[S[I].Name] += S[I].ms();
      Out[S[I].Pass].SelfMs[S[I].Name] += S[I].ms() - ChildMs[I];
    }
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::vector<SpanRecord> S = snapshot();
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Epoch = S.empty() ? 0 : S.front().StartNs;
  for (const SpanRecord &R : S)
    Epoch = std::min(Epoch, R.StartNs);
  std::fputs("{\"traceEvents\":[", F);
  for (size_t I = 0; I != S.size(); ++I) {
    const SpanRecord &R = S[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"fn\":%d,\"pass\":%d}}",
                 I ? "," : "", R.Name, R.Fn < 0 ? 0 : R.Fn,
                 double(R.StartNs - Epoch) / 1e3,
                 double(R.EndNs - R.StartNs) / 1e3, I, R.Parent, R.Fn,
                 R.Pass);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
