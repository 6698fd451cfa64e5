// Ablation for the Figure 6 discussion: First-Fit-Decreasing vs
// Fragmentation-Minimization vs Prompt's Algorithm 2 on B-BPFI instances —
// the paper's running example (385 tuples, 8 keys, 4 blocks) plus a
// batch-scale instance.
#include "baselines/bpfi_baselines.h"
#include "bench_util.h"
#include "core/prompt_partitioner.h"
#include "stats/metrics.h"

using namespace prompt;
using namespace prompt::bench;

namespace {

void Compare(const AccumulatedBatch& sealed, uint32_t blocks,
             const std::string& title) {
  PrintHeader(title);
  PrintRow({"Heuristic", "BSI", "BCI", "KSR", "splitKeys", "fragments"});
  struct Variant {
    const char* name;
    PartitionPlan plan;
  };
  Variant variants[] = {
      {"FFD", BuildFfdPlan(sealed, blocks)},
      {"FragMin", BuildFragMinPlan(sealed, blocks)},
      {"Prompt", BuildPromptPlan(sealed, blocks)},
  };
  for (auto& v : variants) {
    auto batch = MaterializePlan(sealed, v.plan, blocks);
    auto m = ComputeBlockMetrics(batch);
    PrintRow({v.name, Fmt(m.bsi, 1), Fmt(m.bci, 1), Fmt(m.ksr, 3),
              std::to_string(v.plan.split_keys),
              std::to_string(v.plan.fragments)});
  }
}

}  // namespace

int main() {
  // The paper's running example shape (Fig. 5): 385 tuples over 8 keys.
  {
    auto acc_ptr = MakeAccumulator(KeyMode::kExact);
    auto& acc = *acc_ptr;
    acc.Begin(0, Seconds(1));
    const uint64_t counts[8] = {120, 85, 60, 50, 30, 20, 12, 8};
    TimeMicros ts = 0;
    for (uint64_t k = 0; k < 8; ++k) {
      for (uint64_t i = 0; i < counts[k]; ++i) {
        acc.OnTuple(Tuple{ts++, k + 1, 1.0});
      }
    }
    auto sealed = acc.Seal();
    Compare(sealed, 4,
            "Figure 6 — paper example: 385 tuples, 8 keys, 4 blocks");
  }
  // A realistic batch: Zipfian, thousands of keys.
  {
    auto acc_ptr = MakeAccumulator(KeyMode::kExact);
    auto& acc = *acc_ptr;
    acc.Begin(0, Seconds(1));
    Rng rng(5);
    ZipfSampler zipf(20000, 1.3);
    for (int i = 0; i < 200000; ++i) {
      acc.OnTuple(Tuple{i * 5, Mix64(zipf.Sample(rng)), 1.0});
    }
    auto sealed = acc.Seal();
    Compare(sealed, 16,
            "Figure 6 (scaled) — 200k tuples, Zipf z=1.3, 16 blocks");
  }
  std::printf(
      "\nExpected shape: FFD and FragMin keep sizes tight and fragmentation\n"
      "low but ignore cardinality, piling small keys into late blocks (high\n"
      "BCI); Prompt spends a few extra fragments to balance size, cardinality\n"
      "and locality simultaneously (Fig. 6c).\n");
  return 0;
}
