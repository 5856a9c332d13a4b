//===- tests/property_test.cpp - Parameterized invariant sweeps -----------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-module invariants swept over machines, workload shapes and
/// seeds with TEST_P: the measurement's exactness envelope, driver
/// guarantees, dominator correctness against brute force, and interval
/// optimality of the sequential register assignment.
///
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "graph/Dominators.h"
#include "order/Chains.h"
#include "sched/GraphColoring.h"
#include "sched/RegAssign.h"
#include "ursa/Driver.h"
#include "ursa/KillSelection.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ursa;

//===----------------------------------------------------------------------===//
// Driver invariants across machine shapes.
//===----------------------------------------------------------------------===//

namespace {

struct MachineParam {
  const char *Name;
  unsigned Fus, Regs;
};

/// Prints a machine by value ("wide 8x12") so test names stay stable.
void PrintTo(const MachineParam &P, std::ostream *OS) {
  *OS << P.Name << ' ' << P.Fus << 'x' << P.Regs;
}

class DriverInvariants : public ::testing::TestWithParam<MachineParam> {};

} // namespace

TEST_P(DriverInvariants, NeverWorsensAndCertifiesCorrectly) {
  MachineParam MP = GetParam();
  MachineModel M = MachineModel::homogeneous(MP.Fus, MP.Regs);
  GenOptions Opts;
  Opts.NumInstrs = 28;
  Opts.Window = 9;
  for (uint64_t Seed = 1; Seed != 7; ++Seed) {
    Opts.Seed = Seed * 101 + MP.Fus;
    DependenceDAG D0 = buildDAG(generateTrace(Opts));
    DAGAnalysis A(D0);
    HammockForest HF(D0, A);
    std::vector<Measurement> Before = measureAll(D0, A, HF, M);
    auto Limits = machineResources(M);

    URSAResult R = runURSA(D0, M);
    // The transformed DAG stays acyclic (the analysis asserts), and the
    // final requirement never exceeds max(initial, limit).
    DAGAnalysis After(R.DAG);
    for (unsigned I = 0; I != Limits.size(); ++I)
      EXPECT_LE(R.FinalRequired[I],
                std::max(Before[I].MaxRequired, Limits[I].second))
          << "seed " << Opts.Seed;
    // WithinLimits is a real certificate.
    if (R.WithinLimits) {
      for (unsigned I = 0; I != Limits.size(); ++I)
        EXPECT_LE(R.FinalRequired[I], Limits[I].second);
    }
    // Critical path can only have grown.
    EXPECT_GE(R.CritPathAfter, R.CritPathBefore);
  }
}

TEST_P(DriverInvariants, TransformedDagPreservesSemantics) {
  MachineParam MP = GetParam();
  MachineModel M = MachineModel::homogeneous(MP.Fus, MP.Regs);
  GenOptions Opts;
  Opts.NumInstrs = 24;
  Opts.MemOpProb = 0.1;
  RNG InputRng(MP.Fus * 7 + 1);
  for (uint64_t Seed = 50; Seed != 55; ++Seed) {
    Opts.Seed = Seed;
    Trace T = generateTrace(Opts);
    MemoryState In = randomInputs(T, InputRng);
    ExecResult Want = interpret(T, In);

    URSAResult R = runURSA(buildDAG(T), M);
    // Execute the transformed trace in a topological order of its DAG.
    DAGAnalysis A(R.DAG);
    Trace Linear = R.DAG.trace();
    std::vector<Instruction> Order;
    for (unsigned N : A.topoOrder())
      if (!DependenceDAG::isVirtual(N))
        Order.push_back(R.DAG.trace().instr(DependenceDAG::instrOf(N)));
    Linear.replaceInstructions(std::move(Order));
    EXPECT_TRUE(interpret(Linear, In) == Want) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, DriverInvariants,
    ::testing::Values(MachineParam{"tiny", 1, 3}, MachineParam{"narrow", 2, 4},
                      MachineParam{"mid", 4, 8}, MachineParam{"wide", 8, 12},
                      MachineParam{"regstarved", 6, 4},
                      MachineParam{"fustarved", 2, 16}),
    [](const ::testing::TestParamInfo<MachineParam> &I) {
      return I.param.Name;
    });

//===----------------------------------------------------------------------===//
// Measurement exactness envelope across workload shapes.
//===----------------------------------------------------------------------===//

namespace {

class MeasureSweep
    : public ::testing::TestWithParam<GenOptions::ShapeKind> {};

} // namespace

TEST_P(MeasureSweep, FUWidthMatchesBruteForceOnSmallDags) {
  GenOptions Opts;
  Opts.Shape = GetParam();
  Opts.NumInstrs = 8;
  Opts.NumInputs = 3;
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed != 60 && Checked < 15; ++Seed) {
    Opts.Seed = Seed;
    Trace T = generateTrace(Opts);
    if (T.size() > 20)
      continue;
    DependenceDAG D = buildDAG(T);
    DAGAnalysis A(D);
    HammockForest HF(D, A);
    ResourceId Res{ResourceId::FU, FUKind::Universal, RegClassKind::GPR,
                   true};
    Measurement M = measureResource(D, A, HF, Res);
    EXPECT_EQ(M.MaxRequired, bruteForceWidth(M.Reuse.Rel, M.Reuse.Active))
        << "seed " << Seed;
    ++Checked;
  }
  EXPECT_GE(Checked, 5u);
}

TEST_P(MeasureSweep, RegMeasureBoundsTrueWorstCase) {
  GenOptions Opts;
  Opts.Shape = GetParam();
  Opts.NumInstrs = 10;
  Opts.NumInputs = 3;
  Opts.NumOutputs = 1;
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed != 80 && Checked < 15; ++Seed) {
    Opts.Seed = Seed + 1000;
    Trace T = generateTrace(Opts);
    if (T.size() > 18)
      continue;
    DependenceDAG D = buildDAG(T);
    DAGAnalysis A(D);
    HammockForest HF(D, A);
    ResourceId Res{ResourceId::Reg, FUKind::Universal, RegClassKind::GPR,
                   true};
    Measurement M = measureResource(D, A, HF, Res);
    EXPECT_LE(M.MaxRequired, bruteForceMaxLive(D, A)) << "seed " << Seed;
    ++Checked;
  }
  EXPECT_GE(Checked, 5u);
}

TEST_P(MeasureSweep, ExactKillSolverNeverBelowGreedy) {
  GenOptions Opts;
  Opts.Shape = GetParam();
  Opts.NumInstrs = 16;
  for (uint64_t Seed = 1; Seed != 8; ++Seed) {
    Opts.Seed = Seed * 31;
    DependenceDAG D = buildDAG(generateTrace(Opts));
    DAGAnalysis A(D);
    HammockForest HF(D, A);
    MeasureOptions Greedy, Exact;
    Exact.KillSolver = 1;
    ResourceId Res{ResourceId::Reg, FUKind::Universal, RegClassKind::GPR,
                   true};
    Measurement G = measureResource(D, A, HF, Res, Greedy);
    Measurement E = measureResource(D, A, HF, Res, Exact);
    // Exact minimum cover shares killers at least as aggressively, so
    // its measured width cannot be smaller than greedy's.
    EXPECT_GE(E.MaxRequired, G.MaxRequired) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeasureSweep,
                         ::testing::Values(GenOptions::ShapeKind::Layered,
                                           GenOptions::ShapeKind::Expression,
                                           GenOptions::ShapeKind::Chains),
                         [](const auto &I) {
                           switch (I.param) {
                           case GenOptions::ShapeKind::Layered:
                             return "layered";
                           case GenOptions::ShapeKind::Expression:
                             return "expression";
                           default:
                             return "chains";
                           }
                         });

//===----------------------------------------------------------------------===//
// Dominators against brute force.
//===----------------------------------------------------------------------===//

namespace {

/// Brute-force dominance: A dom B iff every entry->B path visits A.
/// Computed by deleting A and checking reachability.
bool bruteDominates(const DependenceDAG &D, unsigned A, unsigned B) {
  if (A == B)
    return true;
  std::vector<uint8_t> Seen(D.size(), 0);
  std::vector<unsigned> Work{DependenceDAG::EntryNode};
  if (DependenceDAG::EntryNode == A)
    return true;
  Seen[DependenceDAG::EntryNode] = 1;
  while (!Work.empty()) {
    unsigned U = Work.back();
    Work.pop_back();
    if (U == B)
      return false; // reached B without passing A
    for (const auto &[V, K] : D.succs(U)) {
      (void)K;
      if (V != A && !Seen[V]) {
        Seen[V] = 1;
        Work.push_back(V);
      }
    }
  }
  return true;
}

} // namespace

TEST(DominatorsProperty, MatchesBruteForceOnRandomDags) {
  GenOptions Opts;
  Opts.NumInstrs = 14;
  for (uint64_t Seed = 1; Seed != 12; ++Seed) {
    Opts.Seed = Seed * 17;
    DependenceDAG D = buildDAG(generateTrace(Opts));
    DAGAnalysis A(D);
    DominatorTree Dom(D, A, /*PostDom=*/false);
    for (unsigned X = 0; X != D.size(); ++X)
      for (unsigned Y = 0; Y != D.size(); ++Y)
        EXPECT_EQ(Dom.dominates(X, Y), bruteDominates(D, X, Y))
            << "seed " << Seed << " pair " << X << "," << Y;
  }
}

TEST(HammocksProperty, FamilyIsLaminar) {
  GenOptions Opts;
  Opts.NumInstrs = 30;
  for (uint64_t Seed = 1; Seed != 10; ++Seed) {
    Opts.Seed = Seed * 13;
    DependenceDAG D = buildDAG(generateTrace(Opts));
    DAGAnalysis A(D);
    HammockForest HF(D, A);
    for (unsigned I = 0; I != HF.size(); ++I)
      for (unsigned J = I + 1; J != HF.size(); ++J) {
        Bitset Inter = HF.hammock(I).Members;
        Inter &= HF.hammock(J).Members;
        if (Inter.none())
          continue;
        // Overlap implies containment (up to the shared boundary node a
        // chain of hammocks legitimately has).
        Bitset IminusJ = HF.hammock(I).Members;
        IminusJ.subtract(HF.hammock(J).Members);
        Bitset JminusI = HF.hammock(J).Members;
        JminusI.subtract(HF.hammock(I).Members);
        EXPECT_TRUE(IminusJ.none() || JminusI.none() || Inter.count() <= 1)
            << "hammocks " << I << " and " << J << " overlap partially";
      }
  }
}

//===----------------------------------------------------------------------===//
// Sequential assignment is optimal interval coloring.
//===----------------------------------------------------------------------===//

namespace {

/// Max overlap of live intervals on the sequential order.
unsigned maxOverlap(const Trace &T) {
  DependenceDAG D = buildDAG(T);
  std::vector<std::vector<unsigned>> Uses = computeUses(D);
  unsigned N = T.size();
  std::vector<int> Delta(N + 1, 0);
  for (unsigned Idx = 0; Idx != N; ++Idx) {
    const Instruction &I = T.instr(Idx);
    if (I.dest() < 0)
      continue;
    unsigned End = Idx;
    for (unsigned U : Uses[DependenceDAG::nodeOf(Idx)])
      End = std::max(End, DependenceDAG::instrOf(U));
    ++Delta[Idx];
    --Delta[End]; // same-position reuse allowed, as in the allocator
  }
  int Cur = 0, Best = 0;
  for (unsigned I = 0; I != N; ++I) {
    Cur += Delta[I];
    Best = std::max(Best, Cur);
  }
  return unsigned(Best);
}

} // namespace

TEST(SequentialAssignment, UsesExactlyMaxOverlapRegisters) {
  GenOptions Opts;
  Opts.NumInstrs = 30;
  for (uint64_t Seed = 1; Seed != 15; ++Seed) {
    Opts.Seed = Seed * 7;
    Trace T = generateTrace(Opts);
    unsigned Peak = maxOverlap(T);
    if (Peak < 2)
      continue;
    DependenceDAG D = buildDAG(T);
    Schedule Seq = sequentialSchedule(D);
    RegAssignment Fits =
        assignRegisters(D, Seq, MachineModel::homogeneous(1, Peak));
    EXPECT_TRUE(Fits.Ok) << "seed " << Seed << " peak " << Peak;
    RegAssignment Starved =
        assignRegisters(D, Seq, MachineModel::homogeneous(1, Peak - 1));
    EXPECT_FALSE(Starved.Ok)
        << "seed " << Seed << ": interval coloring must be tight";
  }
}
