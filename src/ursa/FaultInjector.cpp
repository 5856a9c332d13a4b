//===- ursa/FaultInjector.cpp - Deterministic pipeline fault injection ----===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ursa/FaultInjector.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace ursa;

bool FaultInjector::maybeInjectDAG(DependenceDAG &D, unsigned Round) {
  if (Kind == FaultKind::StallRound) {
    // Persistent, non-corrupting: every applied round from the armed one
    // on costs StallMs of wall clock, so a short URSAOptions::Deadline (or
    // a service deadline mapped onto it) passes deterministically.
    if (Round < FireAt)
      return false;
    Fired = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(StallMs));
    return false;
  }
  if (Fired || Round < FireAt)
    return false;
  bool Did = false;
  switch (Kind) {
  case FaultKind::CycleEdge:
    Did = injectCycle(D, Rng);
    break;
  case FaultKind::DanglingEdge:
    Did = injectDanglingEdge(D, Rng);
    break;
  case FaultKind::DropSeqEdge:
    Did = dropSequenceEdge(D, Rng);
    break;
  case FaultKind::None:
  case FaultKind::FalseProgress:
  case FaultKind::StallRound:
    return false;
  }
  Fired |= Did;
  return Did;
}

bool FaultInjector::shouldFakeProgress(unsigned Round) {
  if (Kind != FaultKind::FalseProgress || Round < FireAt)
    return false;
  Fired = true;
  return true;
}

bool FaultInjector::injectCycle(DependenceDAG &D, RNG &Rng) {
  // Oppose an existing real edge: u -> v gains v -> u, a 2-cycle no
  // legitimate transform can create (addEdge only dedups the same
  // direction).
  std::vector<std::pair<unsigned, unsigned>> RealEdges;
  for (unsigned U = 2; U != D.size(); ++U)
    for (const auto &[V, K] : D.succs(U)) {
      (void)K;
      if (!DependenceDAG::isVirtual(V))
        RealEdges.emplace_back(U, V);
    }
  if (RealEdges.empty())
    return false;
  auto [U, V] = Rng.pick(RealEdges);
  D.addEdge(V, U, EdgeKind::Sequence);
  return true;
}

bool FaultInjector::injectDanglingEdge(DependenceDAG &D, RNG &Rng) {
  if (D.size() < 4)
    return false;
  // A successor-side-only half edge between two unrelated real nodes —
  // the signature of memory corruption or a buggy in-place mutation.
  unsigned U = 2 + unsigned(Rng.below(D.size() - 2));
  unsigned V = 2 + unsigned(Rng.below(D.size() - 2));
  if (U == V)
    V = U + 1 < D.size() ? U + 1 : U - 1;
  D.Succs[U].emplace_back(V, EdgeKind::Data);
  return true;
}

bool FaultInjector::dropSequenceEdge(DependenceDAG &D, RNG &Rng) {
  std::vector<std::pair<unsigned, unsigned>> SeqEdges;
  for (unsigned U = 2; U != D.size(); ++U)
    for (const auto &[V, K] : D.succs(U))
      if (K == EdgeKind::Sequence && !DependenceDAG::isVirtual(V))
        SeqEdges.emplace_back(U, V);
  if (SeqEdges.empty())
    return false;
  auto [U, V] = Rng.pick(SeqEdges);
  D.removeEdge(U, V);
  return true;
}

void FaultInjector::corruptSchedule(Schedule &S, RNG &Rng) {
  // Pile the ops of the last non-empty cycle onto the fullest cycle.
  int From = -1, Into = -1;
  unsigned Fullest = 0;
  for (unsigned C = 0; C != S.Cycles.size(); ++C)
    if (!S.Cycles[C].empty())
      From = int(C);
  for (unsigned C = 0; C != S.Cycles.size(); ++C)
    if (int(C) != From && S.Cycles[C].size() > Fullest) {
      Fullest = S.Cycles[C].size();
      Into = int(C);
    }
  if (From < 0 || Into < 0 || From == Into)
    return;
  (void)Rng;
  for (unsigned U : S.Cycles[From]) {
    S.Cycles[Into].push_back(U);
    S.CycleOf[U] = Into;
  }
  S.Cycles[From].clear();
}

void FaultInjector::corruptAssignment(const DependenceDAG &D,
                                      const Schedule &S, RegAssignment &RA) {
  // Find two same-class values that are simultaneously live and collapse
  // them onto one physical register.
  const Trace &T = D.trace();
  unsigned NV = T.numVRegs();
  std::vector<int> DefC(NV, -1), LastC(NV, -1);
  for (unsigned Idx = 0; Idx != T.size(); ++Idx) {
    const Instruction &I = T.instr(Idx);
    int Cyc = S.CycleOf[DependenceDAG::nodeOf(Idx)];
    if (I.dest() >= 0)
      DefC[I.dest()] = LastC[I.dest()] = Cyc;
    for (unsigned Op = 0; Op != I.numOperands(); ++Op)
      LastC[I.operand(Op)] = std::max(LastC[I.operand(Op)], Cyc);
  }
  for (unsigned V = 0; V != NV; ++V) {
    if (DefC[V] < 0 || V >= RA.PhysOf.size() || RA.PhysOf[V] < 0)
      continue;
    for (unsigned W = V + 1; W != NV; ++W) {
      if (DefC[W] < 0 || W >= RA.PhysOf.size() || RA.PhysOf[W] < 0 ||
          RA.PhysOf[W] == RA.PhysOf[V] ||
          T.vregClass(int(W)) != T.vregClass(int(V)))
        continue;
      bool Overlap = DefC[V] == DefC[W] ||
                     (DefC[W] < LastC[V] && DefC[V] < LastC[W]);
      if (Overlap) {
        RA.PhysOf[W] = RA.PhysOf[V];
        return;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Wire-level faults
//===----------------------------------------------------------------------===//

const char *ursa::wireFaultName(WireFault F) {
  switch (F) {
  case WireFault::None:
    return "none";
  case WireFault::TruncatedFrame:
    return "truncated_frame";
  case WireFault::TornHeader:
    return "torn_header";
  case WireFault::StalledWrite:
    return "stalled_write";
  case WireFault::MidStreamDisconnect:
    return "mid_stream_disconnect";
  case WireFault::GarbageLength:
    return "garbage_length";
  }
  return "unknown";
}

/// Big-endian 4-byte frame header for \p Len.
static std::string frameHeader(uint32_t Len) {
  std::string H(4, '\0');
  H[0] = char(Len >> 24);
  H[1] = char(Len >> 16);
  H[2] = char(Len >> 8);
  H[3] = char(Len);
  return H;
}

Status ursa::injectWireFault(Socket &S, WireFault F, std::string_view Payload,
                             unsigned StallMs) {
  const std::string Hdr = frameHeader(uint32_t(Payload.size()));
  const std::string_view Half = Payload.substr(0, Payload.size() / 2);
  switch (F) {
  case WireFault::None:
    return S.sendFrame(Payload);

  case WireFault::TruncatedFrame: {
    // Honest header, half the payload, then a clean FIN: the peer must
    // report a mid-frame close, never block waiting for the rest.
    if (Status St = S.sendRaw(Hdr); !St.isOk())
      return St;
    if (Status St = S.sendRaw(Half); !St.isOk())
      return St;
    S.shutdown();
    return Status::ok();
  }

  case WireFault::TornHeader: {
    // The connection dies two bytes into the length prefix.
    if (Status St = S.sendRaw(std::string_view(Hdr).substr(0, 2)); !St.isOk())
      return St;
    S.shutdown();
    return Status::ok();
  }

  case WireFault::StalledWrite: {
    // A frame that simply stops making progress. The connection stays
    // open: healing is the peer's per-operation deadline, not our close.
    if (Status St = S.sendRaw(Hdr); !St.isOk())
      return St;
    if (Status St = S.sendRaw(Half); !St.isOk())
      return St;
    std::this_thread::sleep_for(std::chrono::milliseconds(StallMs));
    return Status::ok();
  }

  case WireFault::MidStreamDisconnect: {
    // Abrupt close halfway through the payload (no orderly shutdown).
    if (Status St = S.sendRaw(Hdr); !St.isOk())
      return St;
    if (Status St = S.sendRaw(Half); !St.isOk())
      return St;
    S.close();
    return Status::ok();
  }

  case WireFault::GarbageLength: {
    // A length prefix no peer should trust (4 GiB frame), followed by a
    // little junk so lazy readers that trust it start consuming.
    if (Status St = S.sendRaw(frameHeader(0xFFFFFFFFu)); !St.isOk())
      return St;
    return S.sendRaw("garbage-after-bogus-length");
  }
  }
  return Status::error("fault", "unknown wire fault");
}
