//===- machine/MachineModel.cpp - Target VLIW machine model ---------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "machine/MachineModel.h"

#include <algorithm>
#include <cstdio>

using namespace ursa;

static Status tooLarge() {
  return Status::error(
      "machine", "machine exceeds " +
                     std::to_string(MachineModel::MaxFUsPerClass) +
                     " units or " +
                     std::to_string(MachineModel::MaxRegsPerClass) +
                     " registers in one class");
}

Status MachineModel::checkHomogeneous(unsigned Fus, unsigned Regs) {
  if (Fus == 0 || Regs == 0)
    return Status::error("machine",
                         "machine needs at least one FU and one register");
  if (Fus > MaxFUsPerClass || Regs > MaxRegsPerClass)
    return tooLarge();
  return Status::ok();
}

Status MachineModel::checkClassed(unsigned IntFus, unsigned FloatFus,
                                  unsigned MemFus, unsigned Gprs,
                                  unsigned Fprs) {
  if (IntFus == 0 || MemFus == 0 || Gprs == 0)
    return Status::error(
        "machine", "classed machine needs int and memory units plus GPRs");
  if (std::max({IntFus, FloatFus, MemFus}) > MaxFUsPerClass ||
      std::max(Gprs, Fprs) > MaxRegsPerClass)
    return tooLarge();
  return Status::ok();
}

MachineModel MachineModel::homogeneous(unsigned Fus, unsigned Regs) {
  assert(checkHomogeneous(Fus, Regs).isOk() && "malformed machine");
  MachineModel M;
  M.Homogeneous = true;
  M.UniversalFUs = Fus;
  M.Gprs = Regs;
  M.Fprs = 0;
  return M;
}

MachineModel MachineModel::classed(unsigned IntFus, unsigned FloatFus,
                                   unsigned MemFus, unsigned Gprs,
                                   unsigned Fprs) {
  assert(checkClassed(IntFus, FloatFus, MemFus, Gprs, Fprs).isOk() &&
         "malformed machine");
  MachineModel M;
  M.Homogeneous = false;
  M.IntFUs = IntFus;
  M.FloatFUs = FloatFus;
  M.MemFUs = MemFus;
  M.Gprs = Gprs;
  M.Fprs = Fprs;
  return M;
}

std::string MachineModel::describe() const {
  char Buf[96];
  if (Homogeneous) {
    std::snprintf(Buf, sizeof(Buf), "%ufu/%ur", UniversalFUs, Gprs);
    return Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "%ui+%uf+%um/%ug+%uf", IntFUs, FloatFUs,
                MemFUs, Gprs, Fprs);
  return Buf;
}
