//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Sizes and machines follow the sizing the workloads were chosen on (see
// perfbench/README.md):
//
//  * fit_layered: layered traces (Window 16) of 3,200 and 800 instructions
//    on an 8-FU/16-register machine. Everything fits, so the driver never
//    transforms and the time is closure, hammocks and chain matching below
//    the 4,096-node closure threshold. Two 3.2k traces per 800 one keep the
//    median inside the 3.2k mode.
//  * tight_large: layered traces of 10k and 5k instructions on a
//    3-FU/8-register machine, above the threshold: one driver round of 12
//    proposals, dominated by the witness antichains of findExcessiveSets.
//  * tight_kernels: the kernel suite plus four seeded 40-op random traces
//    on a 2-FU/4-register machine: 1-60 rounds per function, where the
//    driver loop and incremental scoring dominate.
//  * served_mix: a pool of 2,048 distinct 160-op traces for a 4x64
//    machine, twice the service's default measurement-cache capacity, so a
//    source that comes round again in the fresh stream has been evicted.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workload/Generators.h"
#include "workload/Kernels.h"

using namespace perfbench;
using namespace ursa;

namespace {

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

Function layered(unsigned NumInstrs, unsigned Window, uint64_t Seed,
                 unsigned Index) {
  GenOptions G;
  G.NumInstrs = NumInstrs;
  G.Window = Window;
  G.Seed = mix(Seed * 1000003 + Index);
  return {"layered" + std::to_string(NumInstrs) + "_" + std::to_string(Index),
          generateTrace(G).str()};
}

} // namespace

Inputs perfbench::makeInputs(Workload W, uint64_t Seed, bool Small) {
  Inputs In;
  unsigned Div = Small ? 16 : 1;
  switch (W) {
  case Workload::FitLayered:
    In.Fus = 8;
    In.Regs = 16;
    In.TailPct = 75;
    for (unsigned I = 0; I != 6; ++I)
      In.Funcs.push_back(layered((I < 4 ? 3200 : 800) / Div, 16, Seed, I));
    break;
  case Workload::TightLarge:
    In.Fus = 3;
    In.Regs = 8;
    In.TailPct = 50;
    for (unsigned I = 0; I != 3; ++I)
      In.Funcs.push_back(
          layered((I == 2 ? 5000 : 10000) / Div, 16, Seed, I));
    break;
  case Workload::TightKernels: {
    In.Fus = 2;
    In.Regs = 4;
    In.TailPct = 95;
    std::vector<std::pair<std::string, Trace>> Suite = kernelSuite();
    if (Small)
      Suite.resize(3);
    for (auto &[Name, T] : Suite)
      In.Funcs.push_back({Name, T.str()});
    for (unsigned I = 0; I != (Small ? 1u : 4u); ++I)
      In.Funcs.push_back(layered(40, 8, Seed, I));
    break;
  }
  case Workload::ServedMix:
    In.Fus = 4;
    In.Regs = 64;
    In.TailPct = 99;
    for (unsigned I = 0; I != (Small ? 48u : 2048u); ++I)
      In.Funcs.push_back(layered(160, 16, Seed, I));
    break;
  }
  return In;
}
