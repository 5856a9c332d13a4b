//===- machine/MachineModel.h - Target VLIW machine model -------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Description of the abstract VLIW target the paper assumes: a load/store
/// machine with a fixed number of registers and functional units, where
/// loads and stores also occupy a functional unit (Section 5). The base
/// model is the paper's: homogeneous non-pipelined unit-latency FUs and a
/// single register class. The extension fields (FU classes, a float
/// register class, latencies) support the Section 6 future-work
/// experiments and default to the base behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef URSA_MACHINE_MACHINEMODEL_H
#define URSA_MACHINE_MACHINEMODEL_H

#include "support/Status.h"

#include <cassert>
#include <string>

namespace ursa {

/// Functional unit classes. `Universal` FUs execute anything; a machine
/// either is homogeneous (only Universal units) or fully classed.
enum class FUKind { Universal, IntALU, FloatALU, Memory };

/// Register classes. The base machine has only GPRs.
enum class RegClassKind { GPR, FPR };

constexpr unsigned NumRegClasses = 2;

/// Immutable description of one VLIW target configuration.
class MachineModel {
public:
  /// Most units of one FU class, and most registers of one register
  /// class, a machine may have. The list scheduler and the register
  /// assigner allocate one slot per unit or register, so the caps keep an
  /// untrusted machine spec from asking for gigabytes; they sit far above
  /// any machine the experiments use (the largest is 16x64).
  static constexpr unsigned MaxFUsPerClass = 256;
  static constexpr unsigned MaxRegsPerClass = 4096;

  /// The check homogeneous() and classed() assert, for callers holding
  /// untrusted counts (the compile service, the command line): an error
  /// naming the problem, or ok. A homogeneous machine needs at least one
  /// unit and one register; a classed one needs integer units, memory
  /// units and GPRs (float units and FPRs may be zero). No class may
  /// exceed the caps above.
  static Status checkHomogeneous(unsigned Fus, unsigned Regs);
  static Status checkClassed(unsigned IntFus, unsigned FloatFus,
                             unsigned MemFus, unsigned Gprs, unsigned Fprs);

  /// Builds the paper's base machine: \p Fus homogeneous units and \p Regs
  /// general-purpose registers, all latencies 1.
  static MachineModel homogeneous(unsigned Fus, unsigned Regs);

  /// Builds a classed machine (IntALU/FloatALU/Memory units and a split
  /// GPR/FPR file) for the multiple-resource-class extension.
  static MachineModel classed(unsigned IntFus, unsigned FloatFus,
                              unsigned MemFus, unsigned Gprs, unsigned Fprs);

  bool isHomogeneous() const { return Homogeneous; }

  /// Number of FUs that can execute an operation of \p K.
  unsigned numFUs(FUKind K) const {
    if (Homogeneous)
      return UniversalFUs;
    switch (K) {
    case FUKind::Universal:
      return UniversalFUs;
    case FUKind::IntALU:
      return IntFUs;
    case FUKind::FloatALU:
      return FloatFUs;
    case FUKind::Memory:
      return MemFUs;
    }
    assert(false && "covered switch");
    return 0;
  }

  /// Total issue width of one VLIW word.
  unsigned totalFUs() const {
    return Homogeneous ? UniversalFUs : IntFUs + FloatFUs + MemFUs;
  }

  unsigned numRegs(RegClassKind C) const {
    return C == RegClassKind::GPR ? Gprs : Fprs;
  }

  /// Latency in cycles of an operation on FU class \p K. FUs are
  /// non-pipelined: the unit stays busy for the full latency and a
  /// dependent operation starts only after completion.
  unsigned latency(FUKind K) const {
    if (UnitLatency)
      return 1;
    switch (K) {
    case FUKind::Universal:
    case FUKind::IntALU:
      return IntLatency;
    case FUKind::FloatALU:
      return FloatLatency;
    case FUKind::Memory:
      return MemLatency;
    }
    assert(false && "covered switch");
    return 1;
  }

  /// Enables non-unit latencies (int/float/mem) for the pipeline-pressure
  /// experiments. Returns *this for chaining.
  MachineModel &withLatencies(unsigned Int, unsigned Float, unsigned Mem) {
    UnitLatency = false;
    IntLatency = Int;
    FloatLatency = Float;
    MemLatency = Mem;
    return *this;
  }

  /// Section 6 extension: pipelined functional units accept a new
  /// operation every cycle (initiation interval 1) while results still
  /// take the full latency — the interlock-style model that lets the
  /// same machinery target superscalar-like pipelines.
  MachineModel &withPipelinedFUs() {
    PipelinedFUs = true;
    return *this;
  }

  bool pipelinedFUs() const { return PipelinedFUs; }

  /// Cycles a unit stays busy per issued op: the full latency on the
  /// paper's base machine, one cycle when pipelined.
  unsigned occupancy(FUKind K) const {
    return PipelinedFUs ? 1 : latency(K);
  }

  /// Short human-readable description, e.g. "4fu/8r".
  std::string describe() const;

private:
  MachineModel() = default;

  bool Homogeneous = true;
  bool UnitLatency = true;
  bool PipelinedFUs = false;
  unsigned UniversalFUs = 0;
  unsigned IntFUs = 0, FloatFUs = 0, MemFUs = 0;
  unsigned Gprs = 0, Fprs = 0;
  unsigned IntLatency = 1, FloatLatency = 1, MemLatency = 1;
};

} // namespace ursa

#endif // URSA_MACHINE_MACHINEMODEL_H
