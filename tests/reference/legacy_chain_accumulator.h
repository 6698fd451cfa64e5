// Frequency-aware micro-batch buffering (paper §4.1, Algorithm 1) — the
// literal HTable + CountTree transcription, kept out of the production
// library as the reference the tests and benches compare the flat
// accumulator against. Production code obtains an Accumulator via
// MakeAccumulator() (core/accumulator_api.h); only tests and benches link
// this (the prompt_reference library) and construct it directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/macros.h"
#include "core/accumulator_api.h"
#include "reference/count_tree.h"

namespace prompt {

/// \brief Algorithm 1 as a literal transcription: buffers a batch interval's
/// tuples in an HTable of per-key chains while progressively maintaining a
/// CountTree (AVL of approximate frequencies) under a per-key update budget.
///
/// The HTable value tracks the exact current frequency (Freq_Current), the
/// frequency last reflected into the tree (Freq_Updated), the remaining
/// budget, and the adaptive frequency/time steps. An incoming tuple triggers
/// a tree reposition when it satisfies its key's f.step or t.step; otherwise
/// the tuple is only chained. Seal() walks the tree in descending order —
/// the quasi-sorted partitioner input — with no separate sorting pass.
///
/// The differential-testing oracle for the flat columnar implementation: the
/// budget state machine here is the specification the flat accumulator
/// replicates bit-for-bit.
class LegacyChainAccumulator final : public Accumulator {
 public:
  explicit LegacyChainAccumulator(AccumulatorOptions options = {})
      : options_(options), table_(1024) {}
  PROMPT_DISALLOW_COPY_AND_ASSIGN(LegacyChainAccumulator);

  const char* name() const override;
  void Begin(TimeMicros start, TimeMicros end) override;
  void OnTuple(const Tuple& t) override;
  AccumulatedBatch Seal() override;
  AccumulatedBatch SealWithPostSort() override;
  void Reset() override;

  uint64_t num_tuples() const override { return num_tuples_; }
  uint64_t num_keys() const override { return table_.size(); }

  /// Total CountTree repositionings in the current batch (test/ablation
  /// observability: bounded by num_keys * budget).
  uint64_t ordering_updates() const override { return tree_updates_; }

  size_t capacity_bytes() const override;

  /// Key-proportional state: HTable + CountTree (the arena and chain column
  /// are O(tuples) and excluded).
  size_t key_state_bytes() const override {
    return table_.capacity_bytes() + tree_.capacity_bytes();
  }

  TupleStorageView storage() const override {
    return TupleStorageView::Rows(arena_.data(), next_.data(), arena_.size());
  }

  const AccumulatorOptions& options() const override { return options_; }
  void set_options(const AccumulatorOptions& o) override { options_ = o; }

 private:
  struct KeyState {
    uint64_t freq_current = 0;
    uint64_t freq_updated = 0;
    uint32_t budget_left = 0;
    uint64_t f_step = 1;
    TimeMicros t_next = 0;
    uint32_t head = SortedKeyRun::kNoTuple;
    uint32_t tail = SortedKeyRun::kNoTuple;
  };

  void TreeUpdate(KeyId key, KeyState& ks, TimeMicros now);
  AccumulatedBatch MakeBatch(std::vector<SortedKeyRun> keys) const;

  AccumulatorOptions options_;
  FlatMap<KeyState> table_;
  CountTree tree_;
  std::vector<Tuple> arena_;
  std::vector<uint32_t> next_;
  TimeMicros batch_start_ = 0;
  TimeMicros batch_end_ = 0;
  uint64_t num_tuples_ = 0;
  uint64_t initial_f_step_ = 1;
  uint64_t tree_updates_ = 0;
};

/// \brief The two exact Alg. 1 implementations that tests and benches run
/// side by side: this reference and the production flat accumulator. Used
/// as a test parameter, so the enumerator values are part of the printed
/// test names.
enum class ExactImpl { kLegacy, kFlat };

/// "legacy" / "flat", matching each implementation's name().
inline const char* ExactImplName(ExactImpl impl) {
  return impl == ExactImpl::kLegacy ? "legacy" : "flat";
}

inline std::unique_ptr<Accumulator> MakeExactAccumulator(
    ExactImpl impl, AccumulatorOptions options = {}) {
  if (impl == ExactImpl::kLegacy) {
    return std::make_unique<LegacyChainAccumulator>(options);
  }
  return MakeAccumulator(KeyMode::kExact, options);
}

}  // namespace prompt
