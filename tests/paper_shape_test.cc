// The paper's findings as regression tests: each test reruns one
// EXPERIMENTS.md experiment (reduced in size only where the shape still
// holds) and asserts the shape the paper reports, so a change that breaks
// a reproduced finding fails here rather than in a bench printout.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/workbench.h"
#include "sim/hardware.h"

namespace wpred {
namespace {

// Figure 10 (bench_fig10_ycsb_similarity): with Hist-FP, L2,1 and RFE
// LogReg top-7 — the PipelineConfig defaults — YCSB is closest to TPC-C,
// then Twitter, and farthest from TPC-H. Same corpus, observation and
// seeds as the bench: {TPC-C, Twitter, TPC-H} x {2, 8} CPUs x 8 terminals
// x 3 runs of 60 simulated seconds, half the bench's 120 s.
TEST(PaperShapeTest, Fig10YcsbOrderingIsTpccTwitterTpch) {
  SimConfig sim;
  sim.duration_s = 60.0;
  sim.sample_period_s = 0.5;

  WorkbenchConfig config;
  config.workloads = {"TPC-C", "Twitter", "TPC-H"};
  config.skus = {MakeCpuSku(2), MakeCpuSku(8)};
  config.terminals = {8};
  config.runs = 3;
  config.sim = sim;
  const Result<ExperimentCorpus> reference = GenerateCorpus(config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Pipeline pipeline{PipelineConfig{}};
  ASSERT_TRUE(pipeline.Fit(*reference).ok());

  const Result<Experiment> ycsb =
      RunOne("YCSB", MakeCpuSku(2), 8, /*run=*/0, sim, /*base_seed=*/777);
  ASSERT_TRUE(ycsb.ok()) << ycsb.status().ToString();
  const Result<std::vector<Pipeline::WorkloadDistance>> ranked =
      pipeline.RankWorkloads(*ycsb);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();

  ASSERT_EQ(ranked->size(), 3u);
  std::vector<std::string> order;
  for (const Pipeline::WorkloadDistance& r : *ranked) {
    order.push_back(r.workload);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"TPC-C", "Twitter", "TPC-H"}));
  EXPECT_LT((*ranked)[0].mean_distance, (*ranked)[1].mean_distance);
  EXPECT_LT((*ranked)[1].mean_distance, (*ranked)[2].mean_distance);
}

}  // namespace
}  // namespace wpred
