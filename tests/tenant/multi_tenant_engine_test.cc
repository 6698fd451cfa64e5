#include "tenant/multi_tenant_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "replay/journal.h"
#include "workload/composite_source.h"
#include "workload/key_map.h"
#include "workload/sources.h"

namespace prompt {
namespace {

std::shared_ptr<const RateProfile> Constant(double rate) {
  return std::make_shared<ConstantRate>(rate);
}

std::unique_ptr<TupleSource> MakeSource(double rate, double z = 1.0,
                                        uint64_t cardinality = 500,
                                        uint64_t seed = 42) {
  ZipfKeyedSource::Params params;
  params.cardinality = cardinality;
  params.zipf = z;
  params.seed = seed;
  params.rate = Constant(rate);
  return std::make_unique<SynDSource>(std::move(params));
}

CompiledQuery CountQuery(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().message();
  return q.ValueOrDie();
}

TenantQuerySpec MakeSpec(const std::string& id, uint32_t weight,
                         const std::string& query_text,
                         KeyFilter filter = {}) {
  TenantQuerySpec spec;
  spec.id = id;
  spec.weight = weight;
  spec.technique = PartitionerType::kHash;
  spec.filter = filter;
  spec.query = CountQuery(query_text);
  return spec;
}

KeyFilter ModFilter(uint64_t modulo, uint64_t residue) {
  KeyFilter f;
  f.kind = KeyFilter::Kind::kModulo;
  f.modulo = modulo;
  f.residue = residue;
  return f;
}

MultiTenantEngineOptions FastOptions(uint32_t total_slots) {
  MultiTenantEngineOptions opts;
  opts.batch_interval = Millis(200);
  opts.total_slots = total_slots;
  opts.map_tasks = 4;
  opts.reduce_tasks = 4;
  return opts;
}

// A single kAll tenant through the multi-tenant facade must be
// indistinguishable from MicroBatchEngine: the same per-batch outcome
// fingerprint (signals, makespans, technique, autopsy verdict, window-output
// hash) and a bit-identical window, across shard counts, key modes and
// techniques with and without the SealAccumulated fast path — which pins
// the facade's slots <-> cores mapping. The tenant run is fed the solo
// run's recorded wall-clock inputs (partition cost, seal/merge latency,
// ring occupancy), exactly as a replay would be, so every compared value is
// deterministic.
TEST(MultiTenantEngineTest, SingleTenantMatchesMicroBatchEngine) {
  const std::string kQuery = "SELECT COUNT WINDOW 800MS SLIDE 200MS";
  constexpr uint32_t kBatches = 12;
  for (uint32_t shards : {1u, 3u}) {
    for (KeyMode key_mode : {KeyMode::kExact, KeyMode::kSketch}) {
      for (PartitionerType technique :
           {PartitionerType::kPrompt, PartitionerType::kHash}) {
        const std::string label =
            "shards=" + std::to_string(shards) + " key_mode=" +
            KeyModeName(key_mode) + " technique=" +
            PartitionerTypeName(technique);
        SCOPED_TRACE(label);
        const std::string dir = ::testing::TempDir() + "/mt_match_" +
                                std::to_string(shards) +
                                KeyModeName(key_mode) +
                                PartitionerTypeName(technique);
        std::filesystem::remove_all(dir);
        IngestOptions ingest;
        ingest.shards = shards;
        ingest.key_mode = key_mode;
        ingest.accumulator_options.sketch.capacity = 64;

        auto solo_source = MakeSource(20000);
        CompiledQuery q = CountQuery(kQuery);
        JobSpec job = q.job;
        job.window_batches = q.window_batches();
        EngineOptions solo_opts;
        solo_opts.batch_interval = Millis(200);
        solo_opts.map_tasks = 4;
        solo_opts.reduce_tasks = 4;
        solo_opts.cores = 4;
        solo_opts.ingest = ingest;
        solo_opts.journal.dir = dir + "/solo";
        MicroBatchEngine solo(solo_opts, job, CreatePartitioner(technique),
                              solo_source.get());
        ASSERT_TRUE(solo.init_status().ok());
        solo.Run(kBatches);
        auto solo_journal = ReadJournal(solo_opts.journal.dir);
        ASSERT_TRUE(solo_journal.ok()) << solo_journal.status().ToString();

        auto mt_source = MakeSource(20000);
        MultiTenantEngineOptions mt_opts = FastOptions(/*total_slots=*/4);
        mt_opts.ingest = ingest;
        mt_opts.journal.dir = dir + "/tenant";
        mt_opts.journal.inject = std::make_shared<const ReplayEnv>(
            solo_journal->attempts.at(0).envs);
        TenantQuerySpec spec = MakeSpec("solo", 1, kQuery);
        spec.technique = technique;
        auto mt = MultiTenantEngine::Create(mt_opts, {spec}, mt_source.get());
        ASSERT_TRUE(mt.ok()) << mt.status().message();
        MultiTenantRunSummary mt_summary = mt.ValueOrDie()->Run(kBatches);
        ASSERT_EQ(mt_summary.tenants.size(), 1u);
        auto mt_journal = ReadJournal(mt_opts.journal.dir);
        ASSERT_TRUE(mt_journal.ok()) << mt_journal.status().ToString();

        const std::vector<BatchOutcome>& a =
            solo_journal->attempts.at(0).outcomes.at(0);
        const std::vector<BatchOutcome>& b =
            mt_journal->attempts.at(0).outcomes.at(0);
        ASSERT_EQ(a.size(), kBatches);
        ASSERT_EQ(b.size(), kBatches);
        for (size_t i = 0; i < kBatches; ++i) {
          EXPECT_TRUE(a[i].BitIdentical(b[i])) << "batch " << i;
        }
        // Window aggregates must be bit-identical (same doubles, same keys).
        EXPECT_EQ(mt.ValueOrDie()->window(0).Result(), solo.window().Result());
      }
    }
  }
}

// The isolation core: two tenants on disjoint key slices sharing one stream
// must each compute exactly what they compute alone. KeyMappedSource carves
// the disjoint slices (even/odd keys) out of two independent generators.
TEST(MultiTenantEngineTest, DisjointTenantsMatchTheirSoloRuns) {
  const std::string kQuery = "SELECT COUNT WINDOW 800MS SLIDE 200MS";
  const double kRate = 8000;

  auto run_solo = [&](uint64_t seed, uint64_t add) {
    auto inner = MakeSource(kRate, 1.0, 500, seed);
    KeyMappedSource mapped(inner.get(), 2, add);
    auto mt = MultiTenantEngine::Create(FastOptions(/*total_slots=*/4),
                                        {MakeSpec("solo", 1, kQuery)},
                                        &mapped);
    EXPECT_TRUE(mt.ok()) << mt.status().message();
    MultiTenantRunSummary summary = mt.ValueOrDie()->Run(10);
    return std::make_pair(std::move(summary),
                          mt.ValueOrDie()->window(0).Result());
  };
  auto solo_even = run_solo(7, 0);
  auto solo_odd = run_solo(99, 1);

  // Shared run: both generators interleave into one stream; mod-2 filters
  // route each slice to its tenant. 8 slots at equal weights = 4 each, the
  // same compute the solo runs had.
  auto inner_even = MakeSource(kRate, 1.0, 500, 7);
  auto inner_odd = MakeSource(kRate, 1.0, 500, 99);
  KeyMappedSource even(inner_even.get(), 2, 0);
  KeyMappedSource odd(inner_odd.get(), 2, 1);
  CompositeSource shared({&even, &odd});
  auto mt = MultiTenantEngine::Create(
      FastOptions(/*total_slots=*/8),
      {MakeSpec("even", 1, kQuery, ModFilter(2, 0)),
       MakeSpec("odd", 1, kQuery, ModFilter(2, 1))},
      &shared);
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantRunSummary summary = mt.ValueOrDie()->Run(10);
  ASSERT_EQ(summary.tenants.size(), 2u);

  const std::pair<MultiTenantRunSummary,
                  std::unordered_map<KeyId, double>>* solos[2] = {&solo_even,
                                                                  &solo_odd};
  for (size_t t = 0; t < 2; ++t) {
    const RunSummary& shared_run = summary.tenants[t].summary;
    const RunSummary& solo_run = solos[t]->first.tenants[0].summary;
    ASSERT_EQ(shared_run.batches.size(), solo_run.batches.size());
    for (size_t i = 0; i < shared_run.batches.size(); ++i) {
      EXPECT_EQ(shared_run.batches[i].num_tuples,
                solo_run.batches[i].num_tuples)
          << "tenant " << t << " batch " << i;
      EXPECT_EQ(shared_run.batches[i].latency, solo_run.batches[i].latency)
          << "tenant " << t << " batch " << i;
    }
    EXPECT_EQ(mt.ValueOrDie()->window(t).Result(), solos[t]->second)
        << "tenant " << t;
  }
}

// Sharded ingest must not change any tenant's answer: the merged runs are
// replayed through each tenant's filter in the same per-key order.
TEST(MultiTenantEngineTest, ShardedIngestPreservesTenantAnswers) {
  const std::string kQuery = "SELECT COUNT WINDOW 600MS SLIDE 200MS";

  auto run = [&](uint32_t shards) {
    auto inner_even = MakeSource(6000, 1.0, 500, 7);
    auto inner_odd = MakeSource(6000, 1.2, 500, 99);
    KeyMappedSource even(inner_even.get(), 2, 0);
    KeyMappedSource odd(inner_odd.get(), 2, 1);
    CompositeSource shared({&even, &odd});
    MultiTenantEngineOptions opts = FastOptions(/*total_slots=*/8);
    opts.ingest.shards = shards;
    auto mt = MultiTenantEngine::Create(
        opts,
        {MakeSpec("even", 1, kQuery, ModFilter(2, 0)),
         MakeSpec("odd", 1, kQuery, ModFilter(2, 1))},
        &shared);
    EXPECT_TRUE(mt.ok()) << mt.status().message();
    mt.ValueOrDie()->Run(8);
    return std::make_pair(mt.ValueOrDie()->window(0).Result(),
                          mt.ValueOrDie()->window(1).Result());
  };

  auto direct = run(1);
  auto sharded = run(4);
  EXPECT_EQ(direct.first, sharded.first);
  EXPECT_EQ(direct.second, sharded.second);
}

TEST(MultiTenantEngineTest, WeightsDriveSlotsGranted) {
  auto source = MakeSource(8000);
  auto mt = MultiTenantEngine::Create(
      FastOptions(/*total_slots=*/16),
      {MakeSpec("light", 1, "SELECT COUNT WINDOW 600MS SLIDE 200MS"),
       MakeSpec("heavy", 3, "SELECT COUNT WINDOW 600MS SLIDE 200MS")},
      source.get());
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantRunSummary summary = mt.ValueOrDie()->Run(10);
  // {1,3} over 16 slots allocates {4,12} with the stride handing the one
  // leftover slot to the light tenant every 4th heartbeat (heartbeats 3 and
  // 7 of these 10): 4*10+2 vs 12*10-2. Deterministic, so exact.
  EXPECT_EQ(summary.tenants[0].slots_granted, 42u);
  EXPECT_EQ(summary.tenants[1].slots_granted, 118u);
  // Every batch got an autopsy verdict in the per-tenant cause stream.
  for (const TenantRunResult& t : summary.tenants) {
    EXPECT_EQ(t.causes.size(), 10u);
    uint64_t total = 0;
    for (uint64_t c : t.cause_counts) total += c;
    EXPECT_EQ(total, 10u);
  }
}

// Restart over a shared durable store: every tenant's in-window batches
// come back (each tenant owns one store namespace) and the recovered windows
// equal the ones the first process held. Expiry follows the window length,
// not the window's current fill — batch 0 stays in an 8-batch window.
TEST(MultiTenantEngineTest, DurableRestartRecoversEveryInWindowBatch) {
  const std::string kQuery = "SELECT COUNT WINDOW 1600MS SLIDE 200MS";
  const std::string dir = ::testing::TempDir() + "/mt_durable_restart";
  std::filesystem::remove_all(dir);
  MultiTenantEngineOptions opts = FastOptions(/*total_slots=*/4);
  opts.store.dir = dir;
  auto specs = [&] {
    return std::vector<TenantQuerySpec>{
        MakeSpec("even", 1, kQuery, ModFilter(2, 0)),
        MakeSpec("odd", 1, kQuery, ModFilter(2, 1))};
  };
  std::vector<std::unordered_map<KeyId, double>> before;
  {
    auto source = MakeSource(8000);
    auto mt = MultiTenantEngine::Create(opts, specs(), source.get());
    ASSERT_TRUE(mt.ok()) << mt.status().message();
    mt.ValueOrDie()->Run(3);
    for (size_t t = 0; t < 2; ++t) {
      before.push_back(mt.ValueOrDie()->window(t).Result());
    }
  }
  auto source = MakeSource(8000);
  auto restarted = MultiTenantEngine::Create(opts, specs(), source.get());
  ASSERT_TRUE(restarted.ok()) << restarted.status().message();
  const MultiTenantEngine& mt = *restarted.ValueOrDie();
  EXPECT_EQ(mt.durable_recovery().batches_recovered, 6u);
  EXPECT_FALSE(mt.durable_recovery().data_loss);
  for (size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(mt.window(t).Result(), before[t]) << mt.id(t);
    EXPECT_EQ(mt.context(t).next_batch_id, 3u) << mt.id(t);
  }
}

TEST(MultiTenantEngineTest, CreateRejectsInvalidConfigurations) {
  auto source = MakeSource(1000);
  const std::string kQuery = "SELECT COUNT WINDOW 600MS SLIDE 200MS";

  // Null source.
  EXPECT_FALSE(MultiTenantEngine::Create(FastOptions(4),
                                         {MakeSpec("a", 1, kQuery)}, nullptr)
                   .ok());
  // No tenants.
  EXPECT_FALSE(MultiTenantEngine::Create(FastOptions(4), {}, source.get()).ok());
  // Duplicate ids (rejected by the scheduler).
  EXPECT_FALSE(MultiTenantEngine::Create(
                   FastOptions(4),
                   {MakeSpec("a", 1, kQuery), MakeSpec("a", 1, kQuery)},
                   source.get())
                   .ok());
  // More tenants than slots: someone would lose their guaranteed slot.
  EXPECT_FALSE(MultiTenantEngine::Create(
                   FastOptions(2),
                   {MakeSpec("a", 1, kQuery), MakeSpec("b", 1, kQuery),
                    MakeSpec("c", 1, kQuery)},
                   source.get())
                   .ok());
}

}  // namespace
}  // namespace prompt
