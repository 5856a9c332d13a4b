//===- tests/report_test.cpp - Allocation report rendering ----------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "graph/DAGBuilder.h"
#include "ursa/Report.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

using namespace ursa;

TEST(Report, ContainsRequirementsAndEffort) {
  MachineModel M = MachineModel::homogeneous(2, 3);
  DependenceDAG D = buildDAG(figure2Trace());
  URSAResult R = runURSA(D, M);
  std::string S = formatAllocationReport(D, R, M);
  EXPECT_NE(S.find("machine 2fu/3r"), std::string::npos);
  EXPECT_NE(S.find("fu"), std::string::npos);
  EXPECT_NE(S.find("reg(gpr)"), std::string::npos);
  // Figure 2's before-values appear.
  EXPECT_NE(S.find("| 4"), std::string::npos);
  EXPECT_NE(S.find("| 5"), std::string::npos);
  EXPECT_NE(S.find("transformation rounds"), std::string::npos);
  EXPECT_NE(S.find("rounds:\n"), std::string::npos);
}

TEST(Report, NotesResidualWhenOverLimit) {
  MachineModel M = MachineModel::homogeneous(2, 3);
  DependenceDAG D = buildDAG(figure2Trace());
  URSAOptions UO;
  UO.MaxRounds = 0; // forbid transformations: requirements stay excessive
  URSAResult R = runURSA(D, M, UO);
  std::string S = formatAllocationReport(D, R, M);
  EXPECT_NE(S.find("residual excess remains"), std::string::npos);
  EXPECT_NE(S.find("NO"), std::string::npos);
}

TEST(Report, CleanRunHasNoResidualNote) {
  MachineModel M = MachineModel::homogeneous(4, 8);
  DependenceDAG D = buildDAG(figure2Trace());
  URSAResult R = runURSA(D, M);
  std::string S = formatAllocationReport(D, R, M);
  EXPECT_EQ(S.find("residual"), std::string::npos);
  EXPECT_EQ(S.find("rounds:\n"), std::string::npos) << "no log requested";
}
