#include "workloads.h"

#include <utility>

#include "baselines/factory.h"
#include "common/hash.h"
#include "common/logging.h"
#include "engine/engine.h"
#include "tenant/multi_tenant_engine.h"

namespace perfbench {

using prompt::Tuple;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"zipf_sharded", 1.0, 20000, 3, false, false, {}},
      {"uniform_wide", 0.0, 100000, 1, false, false, {}},
      {"zipf_durable", 1.0, 20000, 1, false, true, {}},
      {"tenants_sketch", 1.0, 2000000, 3, true, false,
       {{"all", "all"}, {"even", "mod:2:0"}}},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<prompt::KeyFilter> WindowFilters(const WorkloadSpec& spec) {
  if (spec.tenants.empty()) return {prompt::KeyFilter{}};
  std::vector<prompt::KeyFilter> filters;
  for (const TenantSpec& t : spec.tenants) {
    filters.push_back(prompt::KeyFilter::Parse(t.filter).ValueOrDie());
  }
  return filters;
}

BatchGenerator::BatchGenerator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed), zipf_(spec.keys, spec.zipf) {}

uint64_t BatchGenerator::Next(std::vector<Tuple>* out) {
  out->resize(kTuplesPerBatch);
  const int64_t base = static_cast<int64_t>(next_batch_) * kIntervalUs;
  const int64_t step = kIntervalUs / static_cast<int64_t>(kTuplesPerBatch);
  for (uint64_t i = 0; i < kTuplesPerBatch; ++i) {
    const uint64_t rank = spec_.zipf > 0.0 ? zipf_.Sample(rng_)
                                           : rng_.NextBounded(spec_.keys) + 1;
    // Mix64 is a bijection: ranks stay distinct keys, but hot keys are
    // spread over the id space (and over both parities of mod:2 filters).
    (*out)[i] = Tuple{base + static_cast<int64_t>(i) * step,
                      prompt::Mix64(rank), 1.0};
  }
  return next_batch_++;
}

BufferedSource::BufferedSource(const WorkloadSpec& spec, uint64_t seed)
    : gen_(spec, seed), keys_(spec.keys) {}

bool BufferedSource::Next(Tuple* t) {
  if (pos_ == cur_.size()) {
    if (next_.empty()) {
      starved_ = true;
      return false;
    }
    std::swap(cur_, next_);
    next_.clear();
    pos_ = 0;
  }
  *t = cur_[pos_++];
  return true;
}

const std::vector<Tuple>* BufferedSource::Refill() {
  if (cur_.empty()) {  // first call: the batch the engine starts with
    gen_.Next(&cur_);
    return &cur_;
  }
  if (!next_.empty()) return nullptr;
  gen_.Next(&next_);
  return &next_;
}

namespace {

prompt::IngestOptions IngestFor(const WorkloadSpec& spec, uint32_t shards) {
  prompt::IngestOptions ingest;
  ingest.shards = shards;
  ingest.key_mode =
      spec.sketch ? prompt::KeyMode::kSketch : prompt::KeyMode::kExact;
  return ingest;
}

class SingleEngine final : public EngineUnderTest {
 public:
  SingleEngine(const WorkloadSpec& spec, uint32_t shards,
               prompt::TupleSource* source, const std::string& state_dir) {
    prompt::EngineOptions options;
    options.batch_interval = kIntervalUs;
    options.mode = prompt::ExecutionMode::kSimulated;
    options.use_prompt_reduce = true;
    options.ingest = IngestFor(spec, shards);
    if (spec.durable) {
      options.store.dir = state_dir + "/store";
      options.store.fsync = prompt::FsyncPolicy::kBatch;
      options.journal.dir = state_dir + "/journal";
    }
    engine_ = std::make_unique<prompt::MicroBatchEngine>(
        options, prompt::JobSpec::WordCount(kWindowBatches),
        prompt::CreatePartitioner(prompt::PartitionerType::kPrompt), source);
  }

  const prompt::Status& init_status() const override {
    return engine_->init_status();
  }
  void RunOne(std::vector<prompt::BatchReport>* reports) override {
    prompt::RunSummary summary = engine_->Run(1);
    for (auto& r : summary.batches) reports->push_back(std::move(r));
  }
  size_t num_windows() const override { return 1; }
  const WindowMap& window(size_t) const override {
    return engine_->window().Result();
  }

 private:
  std::unique_ptr<prompt::MicroBatchEngine> engine_;
};

class TenantEngine final : public EngineUnderTest {
 public:
  TenantEngine(const WorkloadSpec& spec, uint32_t shards,
               prompt::TupleSource* source) {
    prompt::MultiTenantEngineOptions options;
    options.batch_interval = kIntervalUs;
    options.mode = prompt::ExecutionMode::kSimulated;
    options.use_prompt_reduce = true;
    options.ingest = IngestFor(spec, shards);
    std::vector<prompt::TenantQuerySpec> specs;
    const std::vector<prompt::KeyFilter> filters = WindowFilters(spec);
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      prompt::TenantQuerySpec t;
      t.id = spec.tenants[i].id;
      t.technique = prompt::PartitionerType::kPrompt;
      t.filter = filters[i];
      t.query.job = prompt::JobSpec::WordCount(kWindowBatches);
      t.query.slide = kIntervalUs;
      t.query.window = kIntervalUs * kWindowBatches;
      specs.push_back(std::move(t));
    }
    auto created =
        prompt::MultiTenantEngine::Create(options, std::move(specs), source);
    if (created.ok()) {
      engine_ = std::move(created).ValueUnsafe();
    } else {
      status_ = created.status();
    }
  }

  const prompt::Status& init_status() const override { return status_; }
  void RunOne(std::vector<prompt::BatchReport>* reports) override {
    prompt::MultiTenantRunSummary run = engine_->Run(1);
    for (auto& t : run.tenants) {
      for (auto& r : t.summary.batches) reports->push_back(std::move(r));
    }
  }
  size_t num_windows() const override { return engine_->tenants(); }
  const WindowMap& window(size_t i) const override {
    return engine_->window(i).Result();
  }

 private:
  prompt::Status status_;
  std::unique_ptr<prompt::MultiTenantEngine> engine_;
};

}  // namespace

std::unique_ptr<EngineUnderTest> MakeEngine(const WorkloadSpec& spec,
                                            uint32_t shards,
                                            prompt::TupleSource* source,
                                            const std::string& state_dir) {
  if (spec.tenants.empty()) {
    return std::make_unique<SingleEngine>(spec, shards, source, state_dir);
  }
  return std::make_unique<TenantEngine>(spec, shards, source);
}

}  // namespace perfbench
