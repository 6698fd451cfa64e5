#include "engine/window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"
#include "common/wire.h"
#include "store/segment.h"

namespace prompt {
namespace {

TEST(WindowTest, AccumulatesWithinWindow) {
  WindowState window(std::make_shared<SumReduce>(), 3);
  window.AddBatch({{1, 10.0}, {2, 5.0}});
  window.AddBatch({{1, 7.0}});
  EXPECT_EQ(window.depth(), 2u);
  EXPECT_DOUBLE_EQ(window.Result().at(1), 17.0);
  EXPECT_DOUBLE_EQ(window.Result().at(2), 5.0);
}

TEST(WindowTest, ExpiresOldBatchesWithInverse) {
  WindowState window(std::make_shared<SumReduce>(), 2);
  window.AddBatch({{1, 10.0}});
  window.AddBatch({{1, 20.0}});
  window.AddBatch({{1, 30.0}});  // first batch expires
  EXPECT_EQ(window.depth(), 2u);
  EXPECT_DOUBLE_EQ(window.Result().at(1), 50.0);
}

TEST(WindowTest, KeyDisappearsWhenAggregateReturnsToIdentity) {
  WindowState window(std::make_shared<SumReduce>(), 1);
  window.AddBatch({{42, 3.0}});
  EXPECT_EQ(window.Result().count(42), 1u);
  window.AddBatch({{7, 1.0}});  // batch with 42 expires, aggregate -> 0
  EXPECT_EQ(window.Result().count(42), 0u);
  EXPECT_EQ(window.Result().count(7), 1u);
}

TEST(WindowTest, SlidingMatchesRecomputedReference) {
  WindowState window(std::make_shared<SumReduce>(), 4);
  std::vector<std::vector<KV>> batches;
  Rng rng;
  for (int b = 0; b < 20; ++b) {
    std::vector<KV> batch;
    for (uint64_t k = 0; k < 10; ++k) {
      batch.push_back(KV{k, static_cast<double>((b * 7 + k * 3) % 13)});
    }
    batches.push_back(batch);
    window.AddBatch(batch);

    // Reference: recompute over the last 4 batches from scratch.
    std::map<KeyId, double> ref;
    size_t lo = batches.size() > 4 ? batches.size() - 4 : 0;
    for (size_t i = lo; i < batches.size(); ++i) {
      for (const KV& kv : batches[i]) ref[kv.key] += kv.value;
    }
    for (const auto& [k, v] : ref) {
      ASSERT_NEAR(window.Result().at(k), v, 1e-9)
          << "batch " << b << " key " << k;
    }
  }
}

TEST(WindowTest, TopKOrdersByAggregate) {
  WindowState window(std::make_shared<SumReduce>(), 5);
  window.AddBatch({{1, 5.0}, {2, 50.0}, {3, 20.0}, {4, 20.0}});
  auto top = window.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 2u);
  EXPECT_DOUBLE_EQ(top[0].value, 50.0);
  EXPECT_EQ(top[1].key, 3u);  // ties broken by key
  EXPECT_EQ(top[2].key, 4u);
}

TEST(WindowTest, TopKClampsToAvailableKeys) {
  WindowState window(std::make_shared<SumReduce>(), 2);
  window.AddBatch({{1, 1.0}});
  EXPECT_EQ(window.TopK(10).size(), 1u);
}

TEST(WindowTest, MaxWindowRecomputesOnExpiry) {
  // MAX is not invertible: when the batch holding the maximum expires, the
  // answer must fall back to the next-largest in-window value.
  WindowState window(std::make_shared<MaxReduce>(), 2);
  window.AddBatch({{1, 100.0}});
  window.AddBatch({{1, 30.0}});
  EXPECT_DOUBLE_EQ(window.Result().at(1), 100.0);
  window.AddBatch({{1, 40.0}});  // the 100 expires
  EXPECT_DOUBLE_EQ(window.Result().at(1), 40.0);
  window.AddBatch({{1, 10.0}});  // the 30... already expired; 40 remains
  EXPECT_DOUBLE_EQ(window.Result().at(1), 40.0);
}

TEST(WindowTest, MinWindowMatchesRecomputedReference) {
  WindowState window(std::make_shared<MinReduce>(), 3);
  Rng rng(4);
  std::vector<std::vector<KV>> batches;
  for (int b = 0; b < 15; ++b) {
    std::vector<KV> batch;
    for (uint64_t k = 0; k < 5; ++k) {
      batch.push_back(KV{k, static_cast<double>(rng.NextBounded(1000))});
    }
    batches.push_back(batch);
    window.AddBatch(batch);

    std::map<KeyId, double> ref;
    size_t lo = batches.size() > 3 ? batches.size() - 3 : 0;
    for (size_t i = lo; i < batches.size(); ++i) {
      for (const KV& kv : batches[i]) {
        auto [it, ins] = ref.try_emplace(kv.key, kv.value);
        it->second = std::min(it->second, kv.value);
      }
    }
    for (const auto& [k, v] : ref) {
      ASSERT_DOUBLE_EQ(window.Result().at(k), v) << "batch " << b;
    }
  }
}

TEST(WindowTest, MaxKeyVanishesWhenItsOnlyBatchExpires) {
  WindowState window(std::make_shared<MaxReduce>(), 1);
  window.AddBatch({{5, 2.0}});
  EXPECT_EQ(window.Result().count(5), 1u);
  window.AddBatch({{6, 1.0}});
  EXPECT_EQ(window.Result().count(5), 0u);
}

TEST(WindowCheckpointTest, RoundTripPreservesStateAndBehaviour) {
  WindowState window(std::make_shared<SumReduce>(), 3);
  window.AddBatch({{1, 5.0}, {2, 2.0}});
  window.AddBatch({{1, 3.0}});
  std::string checkpoint = window.Checkpoint();

  WindowState restored(std::make_shared<SumReduce>(), 3);
  ASSERT_TRUE(restored.Restore(checkpoint).ok());
  EXPECT_EQ(restored.depth(), 2u);
  EXPECT_EQ(restored.Result(), window.Result());

  // Future behaviour matches too: the next expiry retracts the same batch.
  window.AddBatch({{2, 1.0}});
  restored.AddBatch({{2, 1.0}});
  window.AddBatch({{3, 9.0}});  // first batch expires in both
  restored.AddBatch({{3, 9.0}});
  EXPECT_EQ(restored.Result(), window.Result());
}

TEST(WindowCheckpointTest, EmptyWindowRoundTrip) {
  WindowState window(std::make_shared<SumReduce>(), 4);
  WindowState restored(std::make_shared<SumReduce>(), 4);
  ASSERT_TRUE(restored.Restore(window.Checkpoint()).ok());
  EXPECT_EQ(restored.depth(), 0u);
  EXPECT_TRUE(restored.Result().empty());
}

TEST(WindowCheckpointTest, GeometryMismatchRejected) {
  WindowState window(std::make_shared<SumReduce>(), 3);
  window.AddBatch({{1, 1.0}});
  WindowState other(std::make_shared<SumReduce>(), 5);
  EXPECT_TRUE(other.Restore(window.Checkpoint()).IsInvalid());
}

TEST(WindowCheckpointTest, CorruptionDetected) {
  WindowState window(std::make_shared<SumReduce>(), 2);
  window.AddBatch({{1, 1.0}, {2, 2.0}});
  std::string bytes = window.Checkpoint();
  bytes[bytes.size() / 2] ^= 0x10;
  WindowState restored(std::make_shared<SumReduce>(), 2);
  EXPECT_TRUE(restored.Restore(bytes).IsInvalid());
  EXPECT_TRUE(restored.Restore("junk").IsInvalid());
  EXPECT_TRUE(restored.Restore(bytes.substr(0, 10)).IsInvalid());
}

TEST(WindowCheckpointTest, ForgedEntryCountRejectedWithoutAllocation) {
  // A checkpoint whose checksum verifies but whose per-batch entry count is
  // forged: at 2^60 a multiplied bound (n * 16) wraps to 0, so the count
  // must be checked by division before it reaches reserve().
  for (uint64_t forged : {1ull << 60, ~0ull, (1ull << 60) + 1, 1ull << 40}) {
    std::string payload;
    wire::Writer w(&payload);
    w.U64(2);       // window_batches
    w.U64(1);       // retained batches
    w.U64(forged);  // entries in batch 0
    w.U64(7);       // one real entry's worth of bytes
    w.F64(1.0);
    const std::string bytes =
        SealBlob(0x50524d57, payload);  // "PRMW", the checkpoint magic
    WindowState restored(std::make_shared<SumReduce>(), 2);
    EXPECT_TRUE(restored.Restore(bytes).IsInvalid()) << "forged=" << forged;
    EXPECT_EQ(restored.depth(), 0u);
  }
}

TEST(WindowCheckpointTest, WorksForNonInvertibleAggregates) {
  WindowState window(std::make_shared<MaxReduce>(), 2);
  window.AddBatch({{1, 7.0}});
  window.AddBatch({{1, 3.0}});
  WindowState restored(std::make_shared<MaxReduce>(), 2);
  ASSERT_TRUE(restored.Restore(window.Checkpoint()).ok());
  EXPECT_DOUBLE_EQ(restored.Result().at(1), 7.0);
  restored.AddBatch({{1, 4.0}});  // the 7 expires
  EXPECT_DOUBLE_EQ(restored.Result().at(1), 4.0);
}

TEST(WindowTest, EmptyWindow) {
  WindowState window(std::make_shared<SumReduce>(), 2);
  EXPECT_TRUE(window.Result().empty());
  EXPECT_TRUE(window.TopK(5).empty());
  EXPECT_EQ(window.depth(), 0u);
}

}  // namespace
}  // namespace prompt
