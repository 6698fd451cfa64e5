#include "core/sketch_accumulator.h"

#include <algorithm>

#include "common/hash.h"

namespace prompt {

namespace {
/// Tail-bucket hash seed. Fixed and shared by every shard so a tail key maps
/// to the same bucket everywhere — the invariant that lets the pipeline
/// concatenate per-shard buckets and the partitioner place each bucket on
/// one block without splitting tail keys.
constexpr uint64_t kTailBucketSeed = 0x7a11u;
}  // namespace

SketchAccumulator::SketchAccumulator(AccumulatorOptions options)
    : options_(options),
      sketch_(std::make_unique<SpaceSaving>(
          std::max<uint32_t>(1, options.sketch.capacity))),
      table_(1024) {}

const char* SketchAccumulator::name() const {
  return "sketch";
}

void SketchAccumulator::Begin(TimeMicros start, TimeMicros end) {
  PROMPT_CHECK(end > start);
  batch_start_ = start;
  batch_end_ = end;
  num_tuples_ = 0;
  head_tuples_ = 0;
  tail_tuples_ = 0;
  ordering_updates_ = 0;
  table_.Clear();
  states_.clear();
  key_col_.clear();
  ts_col_.clear();
  value_col_.clear();
  next_.clear();
  hll_.Clear();

  const uint32_t want_capacity = std::max<uint32_t>(1, options_.sketch.capacity);
  if (sketch_->capacity() != want_capacity) {
    sketch_ = std::make_unique<SpaceSaving>(want_capacity);
  } else {
    sketch_->Clear();
  }
  if (options_.sketch.cms_width > 0) {
    if (cms_ == nullptr || cms_->width() < options_.sketch.cms_width ||
        cms_->depth() != options_.sketch.cms_depth) {
      cms_ = std::make_unique<CountMin>(
          options_.sketch.cms_width,
          std::max<uint32_t>(1, options_.sketch.cms_depth));
    } else {
      cms_->Clear();
    }
  } else {
    cms_.reset();
  }

  const uint32_t buckets = std::max<uint32_t>(1, options_.sketch.tail_buckets);
  tail_buckets_.assign(buckets, TailBucket{});

  // Same step seeding as the exact paths: f <- N_est / (K_avg * budget).
  const uint64_t denom =
      std::max<uint64_t>(1, options_.avg_keys * options_.budget);
  initial_f_step_ = std::max<uint64_t>(1, options_.estimated_tuples / denom);
  // Auto promotion threshold: a key earns exact state once it looks several
  // times heavier than the average key. Clamped below so uniform streams
  // (N_est ~ K_avg) don't promote the entire key space.
  promote_threshold_ =
      options_.sketch.promote_threshold > 0
          ? options_.sketch.promote_threshold
          : std::max<uint64_t>(
                8, 4 * options_.estimated_tuples /
                       std::max<uint64_t>(1, options_.avg_keys));
}

void SketchAccumulator::Reset() {
  num_tuples_ = 0;
  head_tuples_ = 0;
  tail_tuples_ = 0;
  ordering_updates_ = 0;
  table_ = RobinHoodMap<uint32_t>(1024);
  std::vector<KeyState>().swap(states_);
  std::vector<TailBucket>().swap(tail_buckets_);
  std::vector<KeyId>().swap(key_col_);
  std::vector<TimeMicros>().swap(ts_col_);
  std::vector<double>().swap(value_col_);
  std::vector<uint32_t>().swap(next_);
  sketch_ = std::make_unique<SpaceSaving>(
      std::max<uint32_t>(1, options_.sketch.capacity));
  cms_.reset();
  hll_.Clear();
}

size_t SketchAccumulator::key_state_bytes() const {
  return sketch_->capacity_bytes() +
         (cms_ != nullptr ? cms_->capacity_bytes() : 0) + hll_.memory_bytes() +
         table_.capacity_bytes() + states_.capacity() * sizeof(KeyState) +
         tail_buckets_.capacity() * sizeof(TailBucket);
}

size_t SketchAccumulator::capacity_bytes() const {
  return key_state_bytes() + key_col_.capacity() * sizeof(KeyId) +
         ts_col_.capacity() * sizeof(TimeMicros) +
         value_col_.capacity() * sizeof(double) +
         next_.capacity() * sizeof(uint32_t);
}

void SketchAccumulator::RankUpdate(KeyState& ks, TimeMicros now) {
  // Identical budget state machine to the flat accumulator; only the head
  // keys pay for ordering maintenance, so total rank work is bounded by
  // sketch_capacity * budget regardless of the distinct-key count.
  ++ordering_updates_;
  ks.freq_updated = ks.freq_current;
  if (ks.budget_left > 0) --ks.budget_left;
  const uint64_t n_c = std::max<uint64_t>(1, num_tuples_);
  const uint64_t base =
      std::max<uint64_t>(1, options_.estimated_tuples /
                                std::max<uint32_t>(1, options_.budget));
  ks.f_step = std::max<uint64_t>(1, base * ks.freq_current / n_c);
  const TimeMicros remaining = std::max<TimeMicros>(0, batch_end_ - now);
  ks.t_next =
      now + remaining / std::max<uint32_t>(1, ks.budget_left ? ks.budget_left : 1);
}

void SketchAccumulator::Promote(KeyId key, uint64_t estimate,
                                uint32_t tuple_idx, TimeMicros now) {
  // The key leaves the sketch — its counter slot goes back to tracking tail
  // candidates — and starts an exact chain with the current tuple. Earlier
  // occurrences stay in its tail bucket; rank_base preserves them in the
  // seal ordering.
  sketch_->Remove(key);
  uint32_t& state_idx = table_.GetOrInsert(key);
  state_idx = static_cast<uint32_t>(states_.size());
  KeyState ks;
  ks.key = key;
  ks.freq_current = 1;
  ks.freq_updated = 1;
  ks.rank_base = estimate > 0 ? estimate - 1 : 0;
  ks.budget_left = options_.budget;
  ks.f_step = initial_f_step_;
  const TimeMicros remaining = std::max<TimeMicros>(0, batch_end_ - now);
  ks.t_next = now + remaining / std::max<uint32_t>(1, options_.budget);
  ks.head = ks.tail = tuple_idx;
  states_.push_back(ks);
}

void SketchAccumulator::OnTuple(const Tuple& t) {
  const TimeMicros now = t.ts;
  ++num_tuples_;

  const uint32_t tuple_idx = static_cast<uint32_t>(key_col_.size());
  key_col_.push_back(t.key);
  ts_col_.push_back(t.ts);
  value_col_.push_back(t.value);
  next_.push_back(SortedKeyRun::kNoTuple);

  // Head path: the key already has exact state.
  if (uint32_t* state_idx = table_.Find(t.key)) {
    KeyState& ks = states_[*state_idx];
    next_[ks.tail] = tuple_idx;
    ks.tail = tuple_idx;
    ++ks.freq_current;
    ++head_tuples_;
    if (ks.budget_left == 0) return;
    const uint64_t delta_freq = ks.freq_current - ks.freq_updated;
    if (delta_freq >= ks.f_step || now >= ks.t_next) RankUpdate(ks, now);
    return;
  }

  // Tail path: sketch first, then decide promotion.
  hll_.Add(t.key);
  sketch_->Add(t.key);
  if (cms_ != nullptr) cms_->Add(t.key);
  uint64_t estimate = sketch_->Estimate(t.key);
  if (cms_ != nullptr) {
    // Veto Space-Saving's inherited-count over-estimates: both independent
    // sketches must agree the key is heavy.
    estimate = std::min(estimate, cms_->Estimate(t.key));
  }
  if (estimate >= promote_threshold_ &&
      states_.size() < options_.sketch.capacity) {
    Promote(t.key, estimate, tuple_idx, now);
    ++head_tuples_;
    return;
  }

  TailBucket& bucket =
      tail_buckets_[HashKey(t.key, kTailBucketSeed) % tail_buckets_.size()];
  if (bucket.tail == SortedKeyRun::kNoTuple) {
    bucket.head = tuple_idx;
  } else {
    next_[bucket.tail] = tuple_idx;
  }
  bucket.tail = tuple_idx;
  ++bucket.tuples;
  ++tail_tuples_;
}

void SketchAccumulator::MergeSketchFrom(const SketchAccumulator& other) {
  sketch_->Merge(*other.sketch_);
  const Status s = hll_.Merge(other.hll_);
  PROMPT_CHECK_MSG(s.ok(), "HLL precision mismatch across shards");
}

SketchBatchStats SketchAccumulator::ComputeStats() const {
  SketchBatchStats stats;
  stats.sketch_mode = true;
  stats.head_tuples = head_tuples_;
  stats.tail_tuples = tail_tuples_;
  stats.tracked_keys = sketch_->size();
  stats.promoted_keys = states_.size();
  stats.min_count = sketch_->MinCount();
  stats.distinct_estimate = static_cast<uint64_t>(hll_.Estimate());
  uint64_t error_sum = 0;
  for (const SpaceSaving::Entry& e : sketch_->entries()) error_sum += e.error;
  const uint64_t n = std::max<uint64_t>(1, num_tuples_);
  stats.error_frac = static_cast<double>(error_sum) / static_cast<double>(n);
  return stats;
}

AccumulatedBatch SketchAccumulator::MakeBatch(
    std::vector<SortedKeyRun> keys) const {
  return AccumulatedBatch::FromMergedSketch(num_tuples_, std::move(keys),
                                            storage(), tail_buckets_,
                                            ComputeStats());
}

AccumulatedBatch SketchAccumulator::Seal() {
  // Rank promoted keys by their best full-batch frequency estimate
  // (rank_base folds in pre-promotion occurrences) while counts stay
  // chain-exact. Deterministic: (rank desc, key desc) total order.
  struct SealEntry {
    uint64_t rank = 0;
    SortedKeyRun run;
  };
  std::vector<SealEntry> entries;
  entries.reserve(states_.size());
  for (const KeyState& ks : states_) {
    entries.push_back(SealEntry{ks.rank_base + ks.freq_updated,
                                SortedKeyRun{ks.key, ks.freq_current,
                                             ks.head}});
  }
  std::sort(entries.begin(), entries.end(),
            [](const SealEntry& a, const SealEntry& b) {
              return a.rank != b.rank ? a.rank > b.rank
                                      : a.run.key > b.run.key;
            });
  std::vector<SortedKeyRun> keys;
  keys.reserve(entries.size());
  for (const SealEntry& e : entries) keys.push_back(e.run);
  return MakeBatch(std::move(keys));
}

AccumulatedBatch SketchAccumulator::SealWithPostSort() {
  std::vector<SortedKeyRun> keys;
  keys.reserve(states_.size());
  for (const KeyState& ks : states_) {
    keys.push_back(SortedKeyRun{ks.key, ks.freq_current, ks.head});
  }
  std::sort(keys.begin(), keys.end(),
            [this](const SortedKeyRun& a, const SortedKeyRun& b) {
              const uint64_t ra = states_[*table_.Find(a.key)].rank_base + a.count;
              const uint64_t rb = states_[*table_.Find(b.key)].rank_base + b.count;
              return ra != rb ? ra > rb : a.key < b.key;
            });
  return MakeBatch(std::move(keys));
}

}  // namespace prompt
