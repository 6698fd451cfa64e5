// The benchmark's workloads: what each one generates, how the engine under
// test is configured for it, and the bench-local source that replays the
// pre-generated stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "obs/batch_report.h"
#include "query/multi_query.h"
#include "reference.h"
#include "workload/source.h"

namespace perfbench {

/// Load shape shared by every workload: ~100k tuples per 1 s virtual
/// interval, WordCount over a 10-batch window.
inline constexpr uint64_t kTuplesPerBatch = 100000;
inline constexpr int64_t kIntervalUs = 1000000;
inline constexpr uint32_t kWindowBatches = 10;

struct TenantSpec {
  const char* id;
  const char* filter;  ///< KeyFilter text: "all", "mod:2:0", ...
};

struct WorkloadSpec {
  const char* name;
  double zipf;    ///< Zipf exponent of key ranks; 0 = uniform
  uint64_t keys;  ///< key-space size
  uint32_t shards;
  bool sketch;   ///< ingest.key_mode = sketch
  bool durable;  ///< store.dir (fsync=batch) + journal.dir
  /// Empty: single-tenant MicroBatchEngine. Otherwise MultiTenantEngine
  /// with these tenants, all running Prompt.
  std::vector<TenantSpec> tenants;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Filters the run's windows are checked under: one per tenant, or a single
/// "all" for the single-tenant engine.
std::vector<prompt::KeyFilter> WindowFilters(const WorkloadSpec& spec);

/// \brief Deterministic per-seed stream, produced one whole batch at a time.
/// Batch b holds kTuplesPerBatch tuples evenly spaced over
/// [b * interval, (b + 1) * interval).
class BatchGenerator {
 public:
  BatchGenerator(const WorkloadSpec& spec, uint64_t seed);
  /// Fills `out` with the next batch; returns its id.
  uint64_t Next(std::vector<prompt::Tuple>* out);

 private:
  const WorkloadSpec& spec_;
  prompt::Rng rng_;
  prompt::ZipfSampler zipf_;
  uint64_t next_batch_ = 0;
};

/// \brief TupleSource over pre-generated batches, kept one batch ahead of
/// the engine: while the engine consumes batch b, batch b + 1 is already
/// buffered (the engine reads one tuple past the batch boundary). Next()
/// never generates; an underrun is a harness bug, reported by starved().
class BufferedSource final : public prompt::TupleSource {
 public:
  BufferedSource(const WorkloadSpec& spec, uint64_t seed);

  const char* name() const override { return "perfbench"; }
  bool Next(prompt::Tuple* t) override;
  uint64_t cardinality() const override { return keys_; }

  /// Generates the next batch into the look-ahead buffer when it is empty.
  /// Call between engine batches (outside any timed section). Returns the
  /// generated batch, or null when the buffer was already full.
  const std::vector<prompt::Tuple>* Refill();
  bool starved() const { return starved_; }

 private:
  BatchGenerator gen_;
  uint64_t keys_;
  std::vector<prompt::Tuple> cur_;
  std::vector<prompt::Tuple> next_;
  size_t pos_ = 0;
  bool starved_ = false;
};

/// \brief The engine under test behind one interface: MicroBatchEngine for
/// single-tenant workloads, MultiTenantEngine otherwise.
class EngineUnderTest {
 public:
  virtual ~EngineUnderTest() = default;
  virtual const prompt::Status& init_status() const = 0;
  /// Runs one batch interval; appends one report per tenant.
  virtual void RunOne(std::vector<prompt::BatchReport>* reports) = 0;
  virtual size_t num_windows() const = 0;
  virtual const WindowMap& window(size_t i) const = 0;
};

/// Builds the engine for `spec` with `shards` ingest shards over `source`.
/// `state_dir` (durable workloads only) must be a fresh directory; the
/// store and journal go in subdirectories of it.
std::unique_ptr<EngineUnderTest> MakeEngine(const WorkloadSpec& spec,
                                            uint32_t shards,
                                            prompt::TupleSource* source,
                                            const std::string& state_dir);

}  // namespace perfbench
