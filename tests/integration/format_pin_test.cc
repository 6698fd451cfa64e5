// Format pins: checked-in bytes that every on-disk codec must keep reading
// and reproducing exactly. tests/testdata/format_pins/ holds a tiny durable
// store directory, a tiny single-query run journal, a tiny two-tenant run
// journal and a run journal recorded with the retired legacy Alg. 1
// accumulator, all by promptctl (see the README there); the golden hex
// below pins EncodeBatch and WindowState::Checkpoint on fixed inputs. A
// codec refactor that changes a single byte on disk fails here — old store
// directories must still recover and old journals must still replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "engine/serde.h"
#include "engine/window.h"
#include "query/parser.h"
#include "replay/journal.h"
#include "replay/replayer.h"
#include "store/block_store.h"

namespace prompt {
namespace {

const std::string kPins = std::string(PROMPT_TESTDATA_DIR) + "/format_pins";

/// The query the fixtures were recorded under (2-batch window, 1 s slide).
constexpr const char* kFixtureQuery = "SELECT COUNT TOP 5 WINDOW 2S";

std::string ToHex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Copies a fixture directory to a scratch location: opening a store or
/// journal may repair files in place, and the checked-in bytes must never
/// change.
std::string CopyFixture(const std::string& name) {
  const std::string dst = ::testing::TempDir() + "/format_pin_" + name;
  std::filesystem::remove_all(dst);
  std::filesystem::copy(kPins + "/" + name, dst,
                        std::filesystem::copy_options::recursive);
  return dst;
}

PartitionedBatch FixedBatch() {
  PartitionedBatch batch;
  batch.batch_id = 42;
  batch.seal_time = 3'000'000;
  batch.num_tuples = 3;
  batch.num_keys = 2;
  batch.partition_cost = 1234;
  DataBlock first(0);
  first.Append(Tuple{10, 7, 1.0});
  first.Append(Tuple{20, 9, 2.5});
  first.mutable_fragments().push_back(KeyFragment{7, 1, false});
  first.mutable_fragments().push_back(KeyFragment{9, 1, true});
  DataBlock second(1);
  second.Append(Tuple{-30, 9, -0.5});
  second.mutable_fragments().push_back(KeyFragment{9, 1, true});
  batch.blocks.push_back(std::move(first));
  batch.blocks.push_back(std::move(second));
  return batch;
}

// EncodeBatch(FixedBatch()), little-endian throughout.
constexpr const char* kBatchGoldenHex =
    "424d5250"          // magic "PRMB"
    "c7af2cf73b857db4"  // FNV checksum of everything below
    "2a00000000000000"  // batch_id 42
    "c0c62d0000000000"  // seal_time
    "0300000000000000"  // num_tuples
    "0200000000000000"  // num_keys
    "d204000000000000"  // partition_cost
    "02000000"          // block count
    "00000000" "0200000000000000" "0200000000000000"  // block 0 header
    "0a00000000000000" "0700000000000000" "000000000000f03f"  // (10, 7, 1.0)
    "1400000000000000" "0900000000000000" "0000000000000440"  // (20, 9, 2.5)
    "0700000000000000" "0100000000000000" "00"  // fragment (7, 1, whole)
    "0900000000000000" "0100000000000000" "01"  // fragment (9, 1, split)
    "01000000" "0100000000000000" "0100000000000000"  // block 1 header
    "e2ffffffffffffff" "0900000000000000" "000000000000e0bf"  // (-30, 9, -0.5)
    "0900000000000000" "0100000000000000" "01";  // fragment (9, 1, split)

// Checkpoint of a 3-batch SUM window holding two batch outputs.
constexpr const char* kCheckpointGoldenHex =
    "574d5250"          // magic "PRMW"
    "8c30787d68cee77e"  // FNV checksum of everything below
    "0300000000000000"  // window_batches
    "0200000000000000"  // retained batches
    "0200000000000000"  // batch 0: 2 entries
    "0700000000000000" "0000000000000040"  // (7, 2.0)
    "0900000000000000" "000000000000d0bf"  // (9, -0.25)
    "0100000000000000"  // batch 1: 1 entry
    "0b00000000000000" "0000000065cdcd41";  // (11, 1e9)

TEST(FormatPinTest, EncodeBatchReproducesGoldenBytes) {
  const std::string bytes = EncodeBatch(FixedBatch());
  EXPECT_EQ(ToHex(bytes), kBatchGoldenHex);
  auto decoded = DecodeBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeBatch(*decoded), bytes);
}

TEST(FormatPinTest, WindowCheckpointReproducesGoldenBytes) {
  WindowState window(std::make_shared<SumReduce>(), 3);
  window.AddBatch({{7, 2.0}, {9, -0.25}});
  window.AddBatch({{11, 1e9}});
  const std::string bytes = window.Checkpoint();
  EXPECT_EQ(ToHex(bytes), kCheckpointGoldenHex);
  WindowState restored(std::make_shared<SumReduce>(), 3);
  ASSERT_TRUE(restored.Restore(bytes).ok());
  EXPECT_EQ(restored.Checkpoint(), bytes);
}

TEST(FormatPinTest, StoreFixtureRecoversExpectedWindow) {
  const std::string dir = CopyFixture("store");
  // Batches 0-2 were put and batch 0 was tombstoned when it left the
  // 2-batch window, so recovery yields batches 1 and 2.
  {
    StoreOptions store_options;
    store_options.dir = dir;
    auto store = DurableBlockStore::Open(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->recovery().tombstones, 1u);
    ASSERT_EQ((*store)->LiveBatches(0), (std::vector<uint64_t>{1, 2}));
    for (uint64_t id : {1u, 2u}) {
      auto bytes = (*store)->Get(0, id);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      auto batch = DecodeBatch(*bytes);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(batch->batch_id, id);
      // The encoder reproduces the stored bytes exactly.
      EXPECT_EQ(EncodeBatch(*batch), *bytes);
    }
  }
  EXPECT_EQ(ReadFile(dir + "/seg-000000.log"),
            ReadFile(kPins + "/store/seg-000000.log"));

  auto query = ParseQuery(kFixtureQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EngineOptions opts;
  opts.batch_interval = query->slide;
  opts.map_tasks = 4;
  opts.reduce_tasks = 4;
  opts.cluster_enabled = true;
  opts.cluster.nodes = 4;
  opts.cluster.cores_per_node = 4;
  opts.cores = 16;
  opts.store.dir = dir;
  JournalTupleSource source({});
  MicroBatchEngine engine(opts, query->job,
                          CreatePartitioner(PartitionerType::kPrompt),
                          &source);
  ASSERT_TRUE(engine.init_status().ok()) << engine.init_status().ToString();
  const MicroBatchEngine::DurableRecovery& rec = engine.durable_recovery();
  EXPECT_EQ(rec.batches_recovered, 2u);
  EXPECT_EQ(rec.first_recovered_batch, 1u);
  EXPECT_EQ(rec.last_recovered_batch, 2u);
  EXPECT_EQ(rec.torn_records, 0u);
  EXPECT_FALSE(rec.data_loss);

  std::vector<KV> window;
  double total = 0;
  for (const auto& [key, value] : engine.window().Result()) {
    window.push_back(KV{key, value});
    total += value;
  }
  EXPECT_EQ(total, 201.0);  // 120 + 81 tuples in batches 1 and 2
  EXPECT_EQ(window.size(), 144u);
  EXPECT_EQ(HashBatchOutput(window), 14432109217741909797ull);
  const std::vector<KV> top = engine.window().TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 0xbcda4680438a5951ull);
  EXPECT_EQ(top[0].value, 21.0);
  EXPECT_EQ(top[1].key, 0x1a3eaa3c25c3a340ull);
  EXPECT_EQ(top[1].value, 5.0);
}

TEST(FormatPinTest, JournalFixtureReplaysWithZeroDivergentBatches) {
  const std::string dir = CopyFixture("journal");
  auto journal = ReadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->torn_records, 0u);
  ASSERT_EQ(journal->attempts.size(), 1u);
  EXPECT_EQ(journal->attempts[0].tuples.size(), 319u);  // 118 + 120 + 81
  EXPECT_EQ(journal->attempts[0].published_batches(), 3u);
  EXPECT_EQ(journal->manifest.Get("query", ""), kFixtureQuery);

  ReplayOptions options;
  options.journal_dir = dir;
  options.output_dir = ::testing::TempDir() + "/format_pin_journal.replay";
  std::filesystem::remove_all(options.output_dir);
  auto replay = ReplayJournal(options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->BitIdentical()) << replay->diff.summary;
  EXPECT_EQ(replay->diff.identical_batches, 3u);
  EXPECT_EQ(replay->diff.first_divergent_batch, UINT64_MAX);
  // Replay re-records the run byte for byte: every journal record encoder
  // and (through the replay's scratch store) every store encoder must
  // reproduce the recorded files exactly.
  EXPECT_EQ(ReadFile(options.output_dir + "/seg-000000.log"),
            ReadFile(kPins + "/journal/seg-000000.log"));
  EXPECT_EQ(ReadFile(options.output_dir + "/store/seg-000000.log"),
            ReadFile(kPins + "/store/seg-000000.log"));
}

TEST(FormatPinTest, MultiTenantJournalFixtureReplaysByteForByte) {
  const std::string dir = CopyFixture("journal_multi");
  auto journal = ReadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->torn_records, 0u);
  ASSERT_EQ(journal->attempts.size(), 1u);
  EXPECT_EQ(journal->manifest.Get("mode", ""), "multi");
  EXPECT_EQ(journal->manifest.GetAll("tenant").size(), 2u);
  EXPECT_EQ(journal->attempts[0].published_batches(), 3u);

  ReplayOptions options;
  options.journal_dir = dir;
  options.output_dir = ::testing::TempDir() + "/format_pin_journal_multi.replay";
  std::filesystem::remove_all(options.output_dir);
  auto replay = ReplayJournal(options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->mode, "multi");
  EXPECT_TRUE(replay->manifest_match);
  EXPECT_TRUE(replay->BitIdentical()) << replay->diff.summary;
  EXPECT_EQ(replay->diff.identical_batches, 6u);  // 3 batches x 2 tenants
  EXPECT_EQ(replay->diff.first_divergent_batch, UINT64_MAX);
  EXPECT_EQ(ReadFile(options.output_dir + "/seg-000000.log"),
            ReadFile(kPins + "/journal_multi/seg-000000.log"));
}

// Recorded while Alg. 1 was still selectable, with the literal HTable +
// CountTree transcription (manifest: partitioner.accumulator=legacy,
// ingest.accumulator=legacy, 2 ingest shards). That implementation now lives
// only in the test tree; the journal must replay on the flat accumulator with
// zero divergent batches, and its manifest must round-trip once the replayer
// maps the retired name to "flat".
TEST(FormatPinTest, LegacyAccumulatorJournalReplaysOnFlat) {
  const std::string dir = CopyFixture("journal_legacy");
  auto journal = ReadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->torn_records, 0u);
  ASSERT_EQ(journal->attempts.size(), 1u);
  EXPECT_EQ(journal->attempts[0].tuples.size(), 319u);  // 118 + 120 + 81
  EXPECT_EQ(journal->attempts[0].published_batches(), 3u);
  EXPECT_EQ(journal->manifest.Get("partitioner.accumulator", ""), "legacy");
  EXPECT_EQ(journal->manifest.Get("ingest.accumulator", ""), "legacy");
  EXPECT_EQ(journal->manifest.Get("ingest.shards", ""), "2");

  ReplayOptions options;
  options.journal_dir = dir;
  options.output_dir =
      ::testing::TempDir() + "/format_pin_journal_legacy.replay";
  std::filesystem::remove_all(options.output_dir);
  auto replay = ReplayJournal(options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->manifest_match);
  EXPECT_TRUE(replay->BitIdentical()) << replay->diff.summary;
  EXPECT_TRUE(replay->diff.notes.empty());
  EXPECT_EQ(replay->diff.identical_batches, 3u);
  EXPECT_EQ(replay->diff.first_divergent_batch, UINT64_MAX);

  // The re-recorded journal names the flat accumulator and otherwise holds
  // the recorded manifest and tuple stream unchanged.
  auto replayed = ReadJournal(options.output_dir);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  const auto& recorded_entries = journal->manifest.entries();
  const auto& replayed_entries = replayed->manifest.entries();
  ASSERT_EQ(replayed_entries.size(), recorded_entries.size());
  for (size_t i = 0; i < recorded_entries.size(); ++i) {
    const auto& [key, value] = recorded_entries[i];
    EXPECT_EQ(replayed_entries[i].first, key);
    const bool selector =
        key == "partitioner.accumulator" || key == "ingest.accumulator";
    EXPECT_EQ(replayed_entries[i].second, selector ? "flat" : value) << key;
  }
  const std::vector<Tuple> recorded_tuples = journal->AllTuples();
  const std::vector<Tuple> replayed_tuples = replayed->AllTuples();
  ASSERT_EQ(replayed_tuples.size(), recorded_tuples.size());
  for (size_t i = 0; i < recorded_tuples.size(); ++i) {
    EXPECT_EQ(replayed_tuples[i].ts, recorded_tuples[i].ts) << i;
    EXPECT_EQ(replayed_tuples[i].key, recorded_tuples[i].key) << i;
    EXPECT_EQ(replayed_tuples[i].value, recorded_tuples[i].value) << i;
  }
}

}  // namespace
}  // namespace prompt
