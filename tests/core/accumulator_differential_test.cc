// Differential fuzz between the two exact Accumulator implementations: the
// Alg. 1 reference (HTable chains + CountTree, tests/reference/) and the
// production flat columnar accumulator must be BIT-IDENTICAL in
// every observable output — the quasi-sorted run sequence, the per-key tuple
// chains, both seal variants, and the downstream Alg. 2 partitions built
// from the sealed batch. This is the tentpole acceptance gate: any
// divergence between the budget state machines or the seal orders shows up
// here as a first-class failure.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"
#include "reference/legacy_chain_accumulator.h"
#include "testing/test_helpers.h"

namespace prompt {
namespace {

using testing::ZipfTuples;

constexpr TimeMicros kStart = 0;
constexpr TimeMicros kEnd = Seconds(1);

std::vector<Tuple> DuplicateHeavy(uint64_t n, uint64_t seed) {
  // 90% of tuples hit 4 hot keys; the rest spread over a small tail.
  Rng rng(seed);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  const double step = static_cast<double>(kEnd) / static_cast<double>(n);
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    t.ts = kStart + static_cast<TimeMicros>(step * static_cast<double>(i));
    t.key = rng.NextBounded(10) < 9 ? rng.NextBounded(4)
                                    : 100 + rng.NextBounded(50);
    t.value = static_cast<double>(i);
    tuples.push_back(t);
  }
  return tuples;
}

std::vector<Tuple> SingleKey(uint64_t n) {
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    tuples.push_back(Tuple{kStart + static_cast<TimeMicros>(i), 17,
                           static_cast<double>(i)});
  }
  return tuples;
}

struct Workload {
  std::string name;
  std::vector<Tuple> tuples;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  w.push_back({"empty", {}});
  w.push_back({"single_key", SingleKey(5000)});
  w.push_back({"duplicate_heavy", DuplicateHeavy(30000, 3)});
  w.push_back({"uniform", ZipfTuples(40000, 5000, 0.0, kStart, kEnd, 11)});
  w.push_back({"zipf_0.5", ZipfTuples(40000, 5000, 0.5, kStart, kEnd, 12)});
  w.push_back({"zipf_1.0", ZipfTuples(40000, 5000, 1.0, kStart, kEnd, 13)});
  w.push_back({"zipf_1.4", ZipfTuples(40000, 5000, 1.4, kStart, kEnd, 14)});
  return w;
}

void ExpectBatchesBitIdentical(const AccumulatedBatch& a,
                               const AccumulatedBatch& b,
                               const std::string& ctx) {
  ASSERT_EQ(a.num_tuples(), b.num_tuples()) << ctx;
  ASSERT_EQ(a.keys().size(), b.keys().size()) << ctx;
  for (size_t i = 0; i < a.keys().size(); ++i) {
    EXPECT_EQ(a.keys()[i].key, b.keys()[i].key) << ctx << " run " << i;
    EXPECT_EQ(a.keys()[i].count, b.keys()[i].count) << ctx << " run " << i;
    // Chain contents in chain order: same tuples, same arrival sequence.
    std::vector<Tuple> ta, tb;
    a.ForEachTuple(a.keys()[i], 0, a.keys()[i].count,
                   [&](const Tuple& t) { ta.push_back(t); });
    b.ForEachTuple(b.keys()[i], 0, b.keys()[i].count,
                   [&](const Tuple& t) { tb.push_back(t); });
    ASSERT_EQ(ta.size(), tb.size()) << ctx << " run " << i;
    for (size_t j = 0; j < ta.size(); ++j) {
      EXPECT_EQ(ta[j].ts, tb[j].ts) << ctx << " run " << i << " pos " << j;
      EXPECT_EQ(ta[j].key, tb[j].key) << ctx << " run " << i << " pos " << j;
      EXPECT_EQ(ta[j].value, tb[j].value)
          << ctx << " run " << i << " pos " << j;
    }
  }
}

void ExpectPartitionsBitIdentical(const PartitionedBatch& a,
                                  const PartitionedBatch& b,
                                  const std::string& ctx) {
  ASSERT_EQ(a.blocks.size(), b.blocks.size()) << ctx;
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    const auto& fa = a.blocks[i].fragments();
    const auto& fb = b.blocks[i].fragments();
    ASSERT_EQ(fa.size(), fb.size()) << ctx << " block " << i;
    for (size_t j = 0; j < fa.size(); ++j) {
      EXPECT_EQ(fa[j].key, fb[j].key) << ctx << " block " << i;
      EXPECT_EQ(fa[j].count, fb[j].count) << ctx << " block " << i;
      EXPECT_EQ(fa[j].split, fb[j].split) << ctx << " block " << i;
    }
    const auto& ta = a.blocks[i].tuples();
    const auto& tb = b.blocks[i].tuples();
    ASSERT_EQ(ta.size(), tb.size()) << ctx << " block " << i;
    for (size_t j = 0; j < ta.size(); ++j) {
      EXPECT_EQ(ta[j].ts, tb[j].ts) << ctx << " block " << i << " pos " << j;
      EXPECT_EQ(ta[j].key, tb[j].key) << ctx << " block " << i;
      EXPECT_EQ(ta[j].value, tb[j].value) << ctx << " block " << i;
    }
  }
}

// A sealed batch plus the accumulator that owns its tuple storage: the
// AccumulatedBatch's TupleStorageView is non-owning, so the producer must
// outlive every read of the batch.
struct SealedRun {
  std::unique_ptr<Accumulator> acc;
  AccumulatedBatch batch;
};

SealedRun RunSeal(ExactImpl impl, const std::vector<Tuple>& tuples,
                  AccumulatorOptions opts, bool post_sort) {
  SealedRun run;
  run.acc = MakeExactAccumulator(impl, opts);
  run.acc->Begin(kStart, kEnd);
  for (const Tuple& t : tuples) run.acc->OnTuple(t);
  run.batch = post_sort ? run.acc->SealWithPostSort() : run.acc->Seal();
  return run;
}

TEST(AccumulatorDifferentialTest, SealIsBitIdenticalAcrossWorkloads) {
  for (const Workload& w : Workloads()) {
    for (uint32_t budget : {0u, 4u, 16u}) {
      AccumulatorOptions opts;
      opts.budget = budget;
      const std::string ctx = w.name + " budget=" + std::to_string(budget);
      auto legacy =
          RunSeal(ExactImpl::kLegacy, w.tuples, opts, /*post=*/false);
      auto flat = RunSeal(ExactImpl::kFlat, w.tuples, opts, /*post=*/false);
      ExpectBatchesBitIdentical(legacy.batch, flat.batch, ctx);
    }
  }
}

TEST(AccumulatorDifferentialTest, PostSortSealIsBitIdentical) {
  for (const Workload& w : Workloads()) {
    AccumulatorOptions opts;
    auto legacy =
        RunSeal(ExactImpl::kLegacy, w.tuples, opts, /*post=*/true);
    auto flat = RunSeal(ExactImpl::kFlat, w.tuples, opts, /*post=*/true);
    ExpectBatchesBitIdentical(legacy.batch, flat.batch, w.name + " post_sort");
  }
}

// The downstream gate: Alg. 2 plans built from either sealed batch must
// materialize identical partitions at several block counts.
TEST(AccumulatorDifferentialTest, SealedPartitionsAreBitIdentical) {
  for (const Workload& w : Workloads()) {
    AccumulatorOptions opts;
    auto legacy =
        RunSeal(ExactImpl::kLegacy, w.tuples, opts, /*post=*/false);
    auto flat = RunSeal(ExactImpl::kFlat, w.tuples, opts, /*post=*/false);
    for (uint32_t blocks : {1u, 4u, 16u}) {
      const std::string ctx = w.name + " blocks=" + std::to_string(blocks);
      auto batch_a = MaterializePlan(legacy.batch,
                                     BuildPromptPlan(legacy.batch, blocks),
                                     blocks);
      auto batch_b = MaterializePlan(flat.batch,
                                     BuildPromptPlan(flat.batch, blocks),
                                     blocks);
      ExpectPartitionsBitIdentical(batch_a, batch_b, ctx);
    }
  }
}

// Paranoia sweep: randomized options across randomized streams.
TEST(AccumulatorDifferentialTest, RandomizedOptionSweep) {
  Rng rng(99);
  for (int round = 0; round < 12; ++round) {
    AccumulatorOptions opts;
    opts.budget = static_cast<uint32_t>(rng.NextBounded(33));
    opts.estimated_tuples = 1 + rng.NextBounded(200000);
    opts.avg_keys = 1 + rng.NextBounded(5000);
    const double z = static_cast<double>(rng.NextBounded(15)) / 10.0;
    const uint64_t n = 1000 + rng.NextBounded(20000);
    const uint64_t cardinality = 1 + rng.NextBounded(2000);
    auto tuples =
        ZipfTuples(n, cardinality, z, kStart, kEnd, 1000 + round);
    const std::string ctx = "round " + std::to_string(round);
    auto legacy =
        RunSeal(ExactImpl::kLegacy, tuples, opts, /*post=*/false);
    auto flat = RunSeal(ExactImpl::kFlat, tuples, opts, /*post=*/false);
    ExpectBatchesBitIdentical(legacy.batch, flat.batch, ctx);
  }
}

}  // namespace
}  // namespace prompt
