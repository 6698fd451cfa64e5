// The Accumulator seam: everything a caller needs to drive Alg. 1 batch
// buffering without naming a concrete implementation. Implementations are
// selected through MakeAccumulator(key_mode, options); the engine, the sharded
// ingest pipeline, and the partitioners all program against this interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "model/sketch_stats.h"
#include "model/tuple.h"

namespace prompt {

/// \brief Knobs specific to the sketch (heavy-hitter) accumulator. Inert for
/// the exact implementations.
struct SketchSettings {
  /// Space-Saving counter slots. Doubles as the cap on keys promoted to
  /// exact tracking, so head state is O(capacity) by construction.
  uint32_t capacity = 4096;
  /// Hash buckets the untracked tail flows through (no per-key state; each
  /// bucket is one tuple chain). Must be >= 1.
  uint32_t tail_buckets = 64;
  /// Estimated count at which a sketch-tracked key is promoted to exact
  /// accounting. 0 = auto: max(8, 4 * estimated_tuples / avg_keys).
  uint64_t promote_threshold = 0;
  /// Count-Min cross-check width (counters per row). 0 disables the CMS;
  /// when enabled a promotion needs both sketches to clear the threshold,
  /// vetoing Space-Saving's inherited-count over-estimates.
  uint32_t cms_width = 0;
  /// Count-Min rows (only read when cms_width > 0).
  uint32_t cms_depth = 4;
};

/// \brief Tuning knobs of the buffering mechanism.
struct AccumulatorOptions {
  /// Maximum ordering (seal-rank) updates allowed per key per
  /// batch interval (the `budget` of Alg. 1). Bounds total update work.
  uint32_t budget = 16;
  /// Estimated tuples in the interval (N_est), from the receiver's EWMA of
  /// past data rates. Used to derive the initial frequency step
  /// f = N_est / (K_avg * budget).
  uint64_t estimated_tuples = 100000;
  /// Average distinct keys over past batches (K_avg).
  uint64_t avg_keys = 1000;
  /// Heavy-hitter mode settings (used only by KeyMode::kSketch).
  SketchSettings sketch;
};

/// \brief How per-key frequency state is tracked during ingest, and with it
/// which Alg. 1 implementation buffers the batch. The only selector of the
/// implementation: every exact-mode accumulator in production is the flat
/// one (the literal Alg. 1 transcription lives in tests/reference/ as the
/// differential-testing oracle).
enum class KeyMode {
  /// Exact per-key state for every distinct key (the paper's §2.2.4
  /// position): robin-hood open addressing over columnar (SoA) tuple
  /// storage with a radix-partitioned seal. Memory is O(distinct keys).
  kExact,
  /// Heavy-hitter mode (DESIGN.md §17): a Space-Saving sketch decides which
  /// keys earn exact counters and chains; everything else flows through
  /// hash-partitioned tail buckets with no per-key state. Key-proportional
  /// memory is O(sketch capacity), not O(distinct keys).
  kSketch,
};

/// Canonical lowercase name ("exact" / "sketch") for flags and logs.
const char* KeyModeName(KeyMode mode);

/// Parses "exact" / "sketch". Returns false on unknown names, leaving *out
/// untouched.
bool ParseKeyMode(std::string_view name, KeyMode* out);

/// \brief One entry of the sealed quasi-sorted key list:
/// `⟨key, count, tupleList⟩` with the tuple list referenced as a chain head
/// into the accumulator's tuple storage.
struct SortedKeyRun {
  KeyId key = 0;
  uint64_t count = 0;
  uint32_t head = kNoTuple;

  static constexpr uint32_t kNoTuple = 0xffffffffu;
};

/// \brief Non-owning view over sealed tuple storage in either layout:
/// row-major (an array of Tuple: the sharded pipeline's merged arena) or
/// columnar (the flat accumulator's SoA key/ts/value arrays). Both expose
/// the same chain contract: At(i) materializes tuple i, Next(i) follows its
/// key chain.
///
/// This replaces the raw `const std::vector<Tuple>*` that AccumulatedBatch
/// used to carry: a view is built from explicit spans at one call site, so
/// handing it a soon-to-move buffer is visible in the caller's code instead
/// of dangling silently when the vector reallocates or is destroyed. The
/// referenced storage must still outlive the view (it lives until the owning
/// accumulator's next Begin(), or until the pipeline's merge buffers are
/// rewritten).
class TupleStorageView {
 public:
  TupleStorageView() = default;

  /// Row-major storage: `rows[i]` is tuple i, `next[i]` its chain link.
  static TupleStorageView Rows(const Tuple* rows, const uint32_t* next,
                               size_t size) {
    TupleStorageView v;
    v.rows_ = rows;
    v.next_ = next;
    v.size_ = size;
    return v;
  }

  /// Columnar storage: parallel key/ts/value arrays plus the chain column.
  static TupleStorageView Columns(const KeyId* keys, const TimeMicros* ts,
                                  const double* values, const uint32_t* next,
                                  size_t size) {
    TupleStorageView v;
    v.keys_ = keys;
    v.ts_ = ts;
    v.values_ = values;
    v.next_ = next;
    v.size_ = size;
    return v;
  }

  size_t size() const { return size_; }
  bool columnar() const { return rows_ == nullptr; }

  /// Materializes tuple i (cheap: 24 bytes either way).
  Tuple At(uint32_t i) const {
    if (rows_ != nullptr) return rows_[i];
    return Tuple{ts_[i], keys_[i], values_[i]};
  }

  /// Chain successor of tuple i (SortedKeyRun::kNoTuple terminates).
  uint32_t Next(uint32_t i) const { return next_[i]; }

 private:
  const Tuple* rows_ = nullptr;
  const KeyId* keys_ = nullptr;
  const TimeMicros* ts_ = nullptr;
  const double* values_ = nullptr;
  const uint32_t* next_ = nullptr;
  size_t size_ = 0;
};

/// \brief One hash bucket of the sketch accumulator's tail: a chain of
/// tuples whose keys never earned exact state. All tuples of a given tail
/// key land in exactly one bucket (bucket = hash(key) % bucket count), so a
/// bucket can be placed on one block without splitting any tail key.
struct TailBucket {
  uint32_t head = SortedKeyRun::kNoTuple;
  uint32_t tail = SortedKeyRun::kNoTuple;
  uint64_t tuples = 0;
};

/// \brief View over a sealed batch: quasi-sorted keys (descending frequency)
/// plus access to each key's buffered tuples. Valid until the owning
/// accumulator's next Begin() (or, for merged batches, until the merge
/// buffers are rewritten).
class AccumulatedBatch {
 public:
  uint64_t num_tuples() const { return num_tuples_; }
  uint64_t num_keys() const { return keys_.size(); }

  /// Keys in (quasi-)descending frequency order; `count` is the *exact*
  /// final frequency (the hash table always has exact counts — only the
  /// ordering is approximate, coming from the budget-limited ranking).
  const std::vector<SortedKeyRun>& keys() const { return keys_; }

  /// The tuple storage the key runs chain into.
  const TupleStorageView& storage() const { return storage_; }

  /// Tail buckets (empty for exact accumulators). Tail tuples are NOT
  /// reachable through keys(); downstream consumers that iterate runs must
  /// also drain these chains.
  const std::vector<TailBucket>& tail() const { return tail_; }

  /// Sketch-mode telemetry (`stats().sketch_mode` gates interpretation).
  const SketchBatchStats& stats() const { return stats_; }

  /// Assembles a batch view over externally owned storage — an accumulator's
  /// sealed buffers, or the sharded pipeline's merged arena (per-shard chains
  /// rebased, per-shard run lists interleaved).
  static AccumulatedBatch FromMerged(uint64_t num_tuples,
                                     std::vector<SortedKeyRun> keys,
                                     TupleStorageView storage) {
    AccumulatedBatch batch;
    batch.num_tuples_ = num_tuples;
    batch.keys_ = std::move(keys);
    batch.storage_ = storage;
    return batch;
  }

  /// Sketch-mode variant: also carries the tail chains and batch telemetry.
  static AccumulatedBatch FromMergedSketch(uint64_t num_tuples,
                                           std::vector<SortedKeyRun> keys,
                                           TupleStorageView storage,
                                           std::vector<TailBucket> tail,
                                           SketchBatchStats stats) {
    AccumulatedBatch batch = FromMerged(num_tuples, std::move(keys), storage);
    batch.tail_ = std::move(tail);
    batch.stats_ = stats;
    return batch;
  }

  /// Applies f(const Tuple&) to up to `limit` tuples of the run, starting
  /// after skipping `skip` tuples of its chain. Fragmented keys consume their
  /// chain in segments: fragment i passes skip = sum of earlier fragment
  /// sizes.
  template <typename F>
  void ForEachTuple(const SortedKeyRun& run, uint64_t skip, uint64_t limit,
                    F&& f) const {
    uint32_t idx = run.head;
    while (skip > 0 && idx != SortedKeyRun::kNoTuple) {
      idx = storage_.Next(idx);
      --skip;
    }
    while (limit > 0 && idx != SortedKeyRun::kNoTuple) {
      const Tuple t = storage_.At(idx);
      f(t);
      idx = storage_.Next(idx);
      --limit;
    }
  }

  /// Applies f(const Tuple&) to every tuple chained in a tail bucket.
  template <typename F>
  void ForEachTailTuple(const TailBucket& bucket, F&& f) const {
    uint32_t idx = bucket.head;
    while (idx != SortedKeyRun::kNoTuple) {
      const Tuple t = storage_.At(idx);
      f(t);
      idx = storage_.Next(idx);
    }
  }

 private:
  uint64_t num_tuples_ = 0;
  std::vector<SortedKeyRun> keys_;
  TupleStorageView storage_;
  std::vector<TailBucket> tail_;
  SketchBatchStats stats_;
};

/// \brief Algorithm 1 batch buffering behind a stable seam.
///
/// Lifecycle: Begin(start, end) opens an interval, OnTuple() ingests, and
/// Seal() (or SealWithPostSort()) closes it, returning a view that stays
/// valid until the next Begin(). Reset() additionally releases the large
/// buffers — use it when an accumulator goes idle for a while (e.g. a
/// de-provisioned ingest shard) rather than between back-to-back batches,
/// where Begin()'s capacity reuse is the point.
class Accumulator {
 public:
  virtual ~Accumulator() = default;

  /// Implementation name ("flat" / "sketch").
  virtual const char* name() const = 0;

  /// Starts a new batch interval [start, end). Clears all logical state but
  /// keeps buffer capacity for reuse.
  virtual void Begin(TimeMicros start, TimeMicros end) = 0;

  /// Ingests one tuple; `t.ts` doubles as Time_Now (tuples arrive in
  /// timestamp order per the model's assumptions).
  virtual void OnTuple(const Tuple& t) = 0;

  /// Ends the interval, producing the quasi-sorted key list without an
  /// explicit sorting pass over all keys.
  virtual AccumulatedBatch Seal() = 0;

  /// Post-sort baseline (Fig. 14a): ignores the maintained ordering and
  /// exactly sorts keys by final frequency at seal time — the paper's
  /// "Post-Sort" ablation.
  virtual AccumulatedBatch SealWithPostSort() = 0;

  /// Clears state AND releases buffer capacity back to the allocator.
  virtual void Reset() = 0;

  virtual uint64_t num_tuples() const = 0;
  virtual uint64_t num_keys() const = 0;

  /// Total budgeted ordering updates in the current batch (seal-rank
  /// refreshes; bounded by num_keys * budget).
  virtual uint64_t ordering_updates() const = 0;

  /// Bytes of buffer capacity currently held (tuple storage + hash table +
  /// ordering structures). Capacity accounting for admission/elasticity
  /// decisions; grows amortized, only Reset() gives it back.
  virtual size_t capacity_bytes() const = 0;

  /// Bytes of *key-proportional* state only: hash tables, per-key records,
  /// sketches, ordering structures — excluding tuple buffers, which are
  /// O(tuples) in every mode. This is the memory-wall axis heavy-hitter mode
  /// exists to bound: O(distinct keys) for the exact accumulators,
  /// O(sketch capacity) for kSketch.
  virtual size_t key_state_bytes() const = 0;

  /// View over the current batch's buffered tuples; the sharded pipeline
  /// reads this after Seal() to copy/rebase shard chains into the merged
  /// arena. Valid until the next Begin().
  virtual TupleStorageView storage() const = 0;

  virtual const AccumulatorOptions& options() const = 0;
  virtual void set_options(const AccumulatorOptions& o) = 0;
};

/// Factory: the only place a concrete accumulator type is named outside its
/// own translation unit. kExact builds the flat accumulator, kSketch the
/// heavy-hitter one.
std::unique_ptr<Accumulator> MakeAccumulator(KeyMode mode,
                                             AccumulatorOptions options = {});

}  // namespace prompt
