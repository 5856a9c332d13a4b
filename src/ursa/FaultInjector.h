//===- ursa/FaultInjector.h - Deterministic pipeline fault injection -*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, RNG-seeded fault harness that corrupts pipeline state
/// the way real bugs would, so tests can prove the PipelineVerifier
/// catches every fault class and the driver degrades instead of crashing:
///
///  * CycleEdge      — adds a back edge, breaking acyclicity;
///  * DanglingEdge   — records an edge on the successor side only;
///  * DropSeqEdge    — silently removes a URSA-added sequence edge,
///                     un-doing allocation work behind the driver's back;
///  * FalseProgress  — makes the driver believe a transform applied while
///                     the DAG is unchanged (livelock seed);
///  * StallRound     — delays every applied round by a fixed wall-clock
///                     amount without corrupting anything, modelling a
///                     pathologically slow compile: the deadline
///                     cancellation (URSAOptions::Deadline, the service's
///                     deadline_ms) can be tested deterministically, and
///                     a stalled run must produce exactly what an
///                     unstalled one does.
///
/// An injector is armed with one fault kind and a firing round and handed
/// to the driver via URSAOptions::Faults; the static corrupt* helpers
/// mutate states directly for unit tests (schedules into over-capacity
/// cycles, assignments into live-range conflicts).
///
/// The harness also extends to the service transport: WireFault names the
/// ways a peer can mangle a length-prefixed frame on the wire (truncated
/// frame, torn header, stalled write, mid-stream disconnect, garbage
/// length prefix), and injectWireFault() performs one from the client
/// side of a connection so the transport fault-matrix test can prove the
/// server catches or heals every class.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_URSA_FAULTINJECTOR_H
#define URSA_URSA_FAULTINJECTOR_H

#include "graph/DAG.h"
#include "sched/ListScheduler.h"
#include "sched/RegAssign.h"
#include "support/RNG.h"
#include "support/Socket.h"

#include <string_view>

namespace ursa {

/// What an armed injector corrupts.
enum class FaultKind {
  None,
  CycleEdge,
  DanglingEdge,
  DropSeqEdge,
  FalseProgress,
  StallRound
};

class FaultInjector {
public:
  explicit FaultInjector(FaultKind K, uint64_t Seed = 1,
                         unsigned FireAtRound = 0)
      : Kind(K), FireAt(FireAtRound), Rng(Seed) {}

  FaultKind kind() const { return Kind; }
  bool fired() const { return Fired; }

  /// StallRound only: how long each applied round sleeps. Returns *this
  /// for chaining at the arming site.
  FaultInjector &withStallMs(unsigned Ms) {
    StallMs = Ms;
    return *this;
  }

  /// Driver hook, called after every applied round with the successor's
  /// DAG and its applied-round count \p Round (at BeamWidth K, once per
  /// admitted successor). DAG-corrupting kinds fire once when \p Round
  /// reaches the armed round; the driver's next round-start gate must
  /// catch them. Returns true when a fault was injected.
  bool maybeInjectDAG(DependenceDAG &D, unsigned Round);

  /// Driver hook for FalseProgress, asked before each admitted successor
  /// is applied, with its parent's applied-round count: true when the
  /// driver should pretend the transform was applied. Fires persistently
  /// from the armed round on, modelling a buggy transform, not a one-off
  /// glitch.
  bool shouldFakeProgress(unsigned Round);

  //===--- Direct corruption helpers (unit tests) -------------------------===//

  /// Adds an edge opposing an existing real edge; returns false when the
  /// DAG has no real edge to oppose.
  static bool injectCycle(DependenceDAG &D, RNG &Rng);

  /// Appends a successor-side-only half edge between two real nodes;
  /// returns false on DAGs with fewer than two real nodes.
  static bool injectDanglingEdge(DependenceDAG &D, RNG &Rng);

  /// Removes one sequence edge between real nodes; false if none exist.
  static bool dropSequenceEdge(DependenceDAG &D, RNG &Rng);

  /// Moves one op of the busiest cycle into another cycle that is already
  /// at capacity (over-subscription); no-op on schedules with one cycle.
  static void corruptSchedule(Schedule &S, RNG &Rng);

  /// Forces two simultaneously-live same-class values onto one physical
  /// register; no-op when no such pair exists.
  static void corruptAssignment(const DependenceDAG &D, const Schedule &S,
                                RegAssignment &RA);

private:
  FaultKind Kind;
  unsigned FireAt;
  unsigned StallMs = 10;
  bool Fired = false;
  RNG Rng;
};

/// The ways a peer can mangle a frame on the wire.
enum class WireFault {
  None,
  TruncatedFrame,      ///< honest header, half the payload, then clean FIN
  TornHeader,          ///< connection dies inside the 4-byte length prefix
  StalledWrite,        ///< frame stops making progress mid-payload
  MidStreamDisconnect, ///< abrupt close halfway through the payload
  GarbageLength        ///< length prefix far beyond any sane frame
};

/// Stable lower_snake name for reports and test matrices.
const char *wireFaultName(WireFault F);

/// Performs fault \p F on connection \p S as if sending \p Payload.
/// TruncatedFrame, TornHeader and MidStreamDisconnect leave \p S closed or
/// shut down; StalledWrite sends a partial frame, sleeps \p StallMs, and
/// leaves the connection open (the peer's per-operation deadline is what
/// is under test); GarbageLength sends a complete-looking frame whose
/// length prefix no peer should ever trust. WireFault::None degenerates to
/// a correct sendFrame.
Status injectWireFault(Socket &S, WireFault F, std::string_view Payload,
                       unsigned StallMs = 50);

} // namespace ursa

#endif // URSA_URSA_FAULTINJECTOR_H
