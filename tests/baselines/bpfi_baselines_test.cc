#include "baselines/bpfi_baselines.h"

#include <gtest/gtest.h>

#include "core/prompt_partitioner.h"
#include "stats/metrics.h"
#include "testing/test_helpers.h"

namespace prompt {
namespace {

using testing::Accumulate;
using testing::KeyHistogram;
using testing::RunBatch;
using testing::ZipfTuples;

constexpr TimeMicros kStart = 0;
constexpr TimeMicros kEnd = Seconds(1);

// The paper's running example (Fig. 5): 385 tuples over 8 keys.
// Frequencies chosen to mirror the figure's shape: a few heavy keys.
std::vector<Tuple> PaperExampleTuples() {
  const uint64_t counts[8] = {120, 85, 60, 50, 30, 20, 12, 8};  // sums to 385
  std::vector<Tuple> tuples;
  TimeMicros ts = kStart;
  for (uint64_t k = 0; k < 8; ++k) {
    for (uint64_t i = 0; i < counts[k]; ++i) {
      tuples.push_back(Tuple{ts++, k + 1, 1.0});
    }
  }
  return tuples;
}

TEST(FfdPlanTest, PacksTightButFragmentsMore) {
  auto acc_ptr = MakeAccumulator(KeyMode::kExact);
  auto& acc = *acc_ptr;
  auto tuples = PaperExampleTuples();
  auto sealed = Accumulate(acc, tuples, kStart, kEnd);
  auto ffd = BuildFfdPlan(sealed, 4);
  auto prompt_plan = BuildPromptPlan(sealed, 4);

  auto ffd_batch = MaterializePlan(sealed, ffd, 4);
  auto m = ComputeBlockMetrics(ffd_batch);
  // FFD fills bins to capacity: sizes equal (capacity 97, total 385).
  EXPECT_LE(m.bsi, 4.0);
  // Paper Fig. 6c: Prompt fragments only two keys on the running example
  // while keeping equal sizes and near-identical cardinality.
  EXPECT_EQ(prompt_plan.split_keys, 2u);
  EXPECT_GE(ffd.split_keys, 1u);  // the 120-count key cannot fit any bin
}

TEST(FragMinPlanTest, FragmentsAtMostBlocksMinusOneKeys) {
  auto acc_ptr = MakeAccumulator(KeyMode::kExact);
  auto& acc = *acc_ptr;
  auto tuples = ZipfTuples(20000, 300, 1.2, kStart, kEnd);
  auto sealed = Accumulate(acc, tuples, kStart, kEnd);
  for (uint32_t p : {2u, 4u, 8u}) {
    auto plan = BuildFragMinPlan(sealed, p);
    EXPECT_LE(plan.split_keys, p - 1) << "p=" << p;
  }
}

TEST(FragMinPlanTest, CardinalityIsImbalanced) {
  // The price of minimal fragmentation: late blocks collect the small keys.
  auto acc_ptr = MakeAccumulator(KeyMode::kExact);
  auto& acc = *acc_ptr;
  auto tuples = ZipfTuples(30000, 3000, 1.3, kStart, kEnd);
  auto sealed = Accumulate(acc, tuples, kStart, kEnd);
  auto fragmin_batch = MaterializePlan(sealed, BuildFragMinPlan(sealed, 4), 4);
  auto prompt_batch = MaterializePlan(sealed, BuildPromptPlan(sealed, 4), 4);
  auto m_fragmin = ComputeBlockMetrics(fragmin_batch);
  auto m_prompt = ComputeBlockMetrics(prompt_batch);
  EXPECT_GT(m_fragmin.bci, 5.0 * std::max(1.0, m_prompt.bci));
}

TEST(BpfiPlansTest, BothConserveTuples) {
  auto acc_ptr = MakeAccumulator(KeyMode::kExact);
  auto& acc = *acc_ptr;
  auto tuples = ZipfTuples(10000, 150, 1.4, kStart, kEnd);
  auto sealed = Accumulate(acc, tuples, kStart, kEnd);
  auto expected = KeyHistogram(tuples);
  for (auto* build : {&BuildFfdPlan, &BuildFragMinPlan}) {
    auto batch = MaterializePlan(sealed, build(sealed, 6), 6);
    EXPECT_EQ(testing::BatchKeyHistogram(batch), expected);
  }
}

TEST(BpfiPartitionerTest, AdapterRunsFullPipeline) {
  BpfiBaselinePartitioner ffd(BpfiBaselinePartitioner::Kind::kFfd);
  BpfiBaselinePartitioner fragmin(BpfiBaselinePartitioner::Kind::kFragMin);
  EXPECT_STREQ(ffd.name(), "FFD");
  EXPECT_STREQ(fragmin.name(), "FragMin");
  auto tuples = ZipfTuples(5000, 100, 1.0, kStart, kEnd);
  auto b1 = RunBatch(ffd, tuples, 4, kStart, kEnd);
  auto b2 = RunBatch(fragmin, tuples, 4, kStart, kEnd);
  EXPECT_EQ(b1.num_tuples, 5000u);
  EXPECT_EQ(b2.num_tuples, 5000u);
}

TEST(PromptVsBaselinesTest, PromptBalancesAllThreeObjectives) {
  // The Fig. 6 trade-off: Prompt should be at-or-near FFD's size balance,
  // near FragMin's fragmentation, and better than both on cardinality.
  auto acc_ptr = MakeAccumulator(KeyMode::kExact);
  auto& acc = *acc_ptr;
  auto tuples = ZipfTuples(40000, 800, 1.5, kStart, kEnd);
  auto sealed = Accumulate(acc, tuples, kStart, kEnd);
  const uint32_t p = 4;
  auto m_prompt =
      ComputeBlockMetrics(MaterializePlan(sealed, BuildPromptPlan(sealed, p), p));
  auto m_ffd =
      ComputeBlockMetrics(MaterializePlan(sealed, BuildFfdPlan(sealed, p), p));
  auto m_fragmin = ComputeBlockMetrics(
      MaterializePlan(sealed, BuildFragMinPlan(sealed, p), p));

  EXPECT_LE(m_prompt.bsi, std::max(m_ffd.bsi, 4.0) * 2);
  EXPECT_LE(m_prompt.ksr, m_ffd.ksr + 0.05);
  EXPECT_LE(m_prompt.bci, m_fragmin.bci);
}

}  // namespace
}  // namespace prompt
