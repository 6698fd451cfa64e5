#include "engine/window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <vector>

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


// ---- Differential test against a std::map reference ----

/// The window semantics spelled out on an ordered map: invertible aggregates
/// fold and retract in the same per-key order as WindowState (so values
/// must match bit for bit); non-invertible ones rebuild from the retained
/// batches on expiry or replacement.
class ReferenceWindow {
 public:
  ReferenceWindow(std::shared_ptr<ReduceFunction> reduce, size_t window)
      : reduce_(std::move(reduce)), window_(window) {}

  void AddBatch(const std::vector<KV>& batch) {
    batches_.push_back(batch);
    if (!reduce_->invertible()) {
      if (batches_.size() > window_) batches_.pop_front();
      Rebuild();
      return;
    }
    for (const KV& kv : batch) Fold(kv);
    if (batches_.size() > window_) {
      for (const KV& kv : batches_.front()) Retract(kv);
      batches_.pop_front();
    }
  }

  void ReplaceBatch(size_t index, const std::vector<KV>& batch) {
    if (reduce_->invertible()) {
      for (const KV& kv : batches_[index]) Retract(kv);
      for (const KV& kv : batch) Fold(kv);
      batches_[index] = batch;
    } else {
      batches_[index] = batch;
      Rebuild();
    }
  }

  /// Restore() re-folds the retained batches from scratch.
  void Rebuild() {
    answer_.clear();
    for (const auto& batch : batches_) {
      for (const KV& kv : batch) Fold(kv);
    }
  }

  std::vector<KV> TopK(size_t k) const {
    std::vector<KV> all;
    for (const auto& [key, value] : answer_) all.push_back(KV{key, value});
    std::stable_sort(all.begin(), all.end(), [](const KV& a, const KV& b) {
      return a.value > b.value;  // stable over ascending keys: ties by key
    });
    all.resize(std::min(k, all.size()));
    return all;
  }

  const std::map<KeyId, double>& answer() const { return answer_; }
  size_t depth() const { return batches_.size(); }

 private:
  void Fold(const KV& kv) {
    auto [it, inserted] = answer_.try_emplace(kv.key, reduce_->Identity());
    it->second = reduce_->Combine(it->second, kv.value);
  }
  void Retract(const KV& kv) {
    auto it = answer_.find(kv.key);
    if (it == answer_.end()) return;
    it->second = reduce_->Inverse(it->second, kv.value);
    if (it->second == reduce_->Identity()) answer_.erase(it);
  }

  std::shared_ptr<ReduceFunction> reduce_;
  size_t window_;
  std::deque<std::vector<KV>> batches_;
  std::map<KeyId, double> answer_;
};

/// One batch output: distinct keys from a range that drifts upward with the
/// batch number, with fractional values so that the fold order matters.
std::vector<KV> DriftingBatch(Rng* rng, uint64_t batch) {
  const uint64_t lo = batch * 7;
  std::map<KeyId, double> out;
  const uint64_t n = 1 + rng->NextBounded(60);
  for (uint64_t i = 0; i < n; ++i) {
    const double value =
        static_cast<double>(rng->NextBounded(9)) + 0.1 * rng->NextBounded(10);
    out[lo + rng->NextBounded(90)] += value;
  }
  std::vector<KV> batch_output;
  for (const auto& [key, value] : out) batch_output.push_back(KV{key, value});
  return batch_output;
}

void ExpectMatches(const WindowState& window, const ReferenceWindow& ref,
                   const std::string& where) {
  const std::map<KeyId, double> got(window.Result().begin(),
                                    window.Result().end());
  ASSERT_EQ(got.size(), ref.answer().size()) << where;
  for (const auto& [key, value] : ref.answer()) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end()) << where << " key " << key;
    // Exact: the fold order per key is the reference's, so no rounding may
    // differ.
    ASSERT_TRUE(it->second == value)
        << where << " key " << key << ": " << it->second << " vs " << value;
  }
  ASSERT_EQ(window.depth(), ref.depth()) << where;
  for (size_t k : {size_t{1}, size_t{5}, size_t{1000}}) {
    const std::vector<KV> top = window.TopK(k);
    const std::vector<KV> want = ref.TopK(k);
    ASSERT_EQ(top.size(), want.size()) << where << " k=" << k;
    for (size_t i = 0; i < top.size(); ++i) {
      ASSERT_EQ(top[i].key, want[i].key) << where << " k=" << k << " #" << i;
      ASSERT_TRUE(top[i].value == want[i].value) << where << " #" << i;
    }
  }
}

void RunDifferential(std::shared_ptr<ReduceFunction> reduce, uint64_t seed) {
  constexpr uint32_t kWindow = 5;
  Rng rng(seed);
  auto window = std::make_unique<WindowState>(reduce, kWindow);
  ReferenceWindow ref(reduce, kWindow);
  for (uint64_t b = 0; b < 120; ++b) {
    const std::string where = "batch " + std::to_string(b);
    const std::vector<KV> batch = DriftingBatch(&rng, b);
    window->AddBatch(batch);
    ref.AddBatch(batch);
    // The view was materialised by the previous check; it must reflect the
    // AddBatch just made.
    ExpectMatches(*window, ref, where);

    if (rng.NextBounded(3) == 0) {
      const size_t index = rng.NextBounded(window->depth());
      const std::vector<KV> redo = DriftingBatch(&rng, b);
      ASSERT_TRUE(window->ReplaceBatch(index, redo).ok());
      ref.ReplaceBatch(index, redo);
      ExpectMatches(*window, ref, where + " after ReplaceBatch");
    }
    if (b == 40 || b == 77) {
      auto restored = std::make_unique<WindowState>(reduce, kWindow);
      ASSERT_TRUE(restored->Result().empty());  // materialise, then restore
      ASSERT_TRUE(restored->Restore(window->Checkpoint()).ok());
      EXPECT_EQ(restored->Checkpoint(), window->Checkpoint()) << where;
      window = std::move(restored);
      ref.Rebuild();
      ExpectMatches(*window, ref, where + " after Restore");
    }
  }
}

TEST(WindowDifferentialTest, SumMatchesOrderedReference) {
  RunDifferential(std::make_shared<SumReduce>(), 11);
}

TEST(WindowDifferentialTest, MaxMatchesOrderedReference) {
  RunDifferential(std::make_shared<MaxReduce>(), 12);
}

TEST(WindowDifferentialTest, MinMatchesOrderedReference) {
  RunDifferential(std::make_shared<MinReduce>(), 13);
}

TEST(WindowDifferentialTest, RestoringAnEmptyCheckpointClearsTheView) {
  WindowState window(std::make_shared<SumReduce>(), 3);
  window.AddBatch({{1, 2.0}, {2, 3.0}});
  ASSERT_EQ(window.Result().size(), 2u);
  const WindowState empty(std::make_shared<SumReduce>(), 3);
  ASSERT_TRUE(window.Restore(empty.Checkpoint()).ok());
  EXPECT_TRUE(window.Result().empty());
  EXPECT_TRUE(window.TopK(3).empty());
}

TEST(WindowDifferentialTest, FailedMutationsKeepTheView) {
  WindowState window(std::make_shared<SumReduce>(), 3);
  window.AddBatch({{1, 2.0}});
  ASSERT_EQ(window.Result().at(1), 2.0);
  EXPECT_TRUE(window.ReplaceBatch(5, {{9, 1.0}}).IsOutOfRange());
  EXPECT_TRUE(window.Restore("junk").IsInvalid());
  ASSERT_EQ(window.Result().size(), 1u);
  EXPECT_EQ(window.Result().at(1), 2.0);
}

// ---- Memory bound under key churn ----

void RunChurn(std::shared_ptr<ReduceFunction> reduce) {
  // A constant number of live keys whose ids drift through 50x as many
  // distinct ids: the answer's table must not grow once the window is full
  // (deletion leaves no tombstones, and the table is never rebuilt larger).
  constexpr uint32_t kWindow = 4;
  constexpr uint64_t kKeysPerBatch = 500;
  constexpr uint64_t kBatches = 200;
  WindowState window(reduce, kWindow);
  size_t capacity_when_full = 0;
  for (uint64_t b = 0; b < kBatches; ++b) {
    std::vector<KV> batch;
    for (uint64_t i = 0; i < kKeysPerBatch; ++i) {
      batch.push_back(
          KV{b * kKeysPerBatch + i, 1.0 + static_cast<double>(i % 3)});
    }
    window.AddBatch(std::move(batch));
    if (b >= kWindow) {
      ASSERT_EQ(window.Result().size(), kWindow * kKeysPerBatch) << b;
    }
    if (b == kWindow) capacity_when_full = window.table_capacity();
    if (b > kWindow) {
      ASSERT_EQ(window.table_capacity(), capacity_when_full) << "batch " << b;
    }
  }
  // Sized for the live keys plus one incoming batch (2500), not for the
  // 100k ids seen: 4096 is the smallest power of two holding 2500 at 7/8.
  EXPECT_LE(capacity_when_full, 4096u);
}

TEST(WindowChurnTest, TableStopsGrowingOnceTheWindowFillsSum) {
  RunChurn(std::make_shared<SumReduce>());
}

TEST(WindowChurnTest, TableStopsGrowingOnceTheWindowFillsMax) {
  RunChurn(std::make_shared<MaxReduce>());
}

}  // namespace
}  // namespace prompt
