// Adversarial serde corpus: the durable store feeds DecodeBatch bytes that
// crossed a crash, so the decoder must survive truncation at every length,
// any single bit flip, and forged counts engineered to overflow size
// arithmetic — always a clean Status, never a crash or giant allocation.
// The seeded mutation corpus at the end extends the same contract to every
// other decoder of bytes read back from disk: window checkpoints, journal
// segments and durable-store segments.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/wire.h"
#include "core/prompt_partitioner.h"
#include "engine/serde.h"
#include "engine/window.h"
#include "replay/journal.h"
#include "store/block_store.h"
#include "store/segment.h"
#include "testing/test_helpers.h"

namespace prompt {
namespace {

using testing::RunBatch;
using testing::ZipfTuples;

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

std::string SmallBatchBytes() {
  PromptPartitioner partitioner;
  auto data = ZipfTuples(40, 50, 1.1, 0, Seconds(1));
  return EncodeBatch(RunBatch(partitioner, data, 2, 0, Seconds(1), 9));
}

TEST(SerdeHardeningTest, TruncationAtEveryLengthFailsCleanly) {
  const std::string bytes = SmallBatchBytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = DecodeBatch(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_TRUE(r.status().IsInvalid()) << "cut=" << cut;
  }
}

TEST(SerdeHardeningTest, EveryBitFlipIsDetected) {
  const std::string bytes = SmallBatchBytes();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_FALSE(DecodeBatch(flipped).ok()) << "byte=" << i << " bit=" << bit;
    }
  }
}

TEST(SerdeHardeningTest, ForgedTupleCountRejectedWithoutAllocation) {
  // A count near 2^64 wraps count*24 back into small numbers: the decoder
  // must bound by division, reject, and above all never reserve() by it.
  for (uint64_t forged :
       {~0ull, ~0ull / 24 + 1, 0x0AAAAAAAAAAAAAAAull, 1ull << 62}) {
    std::string block;
    PutU32(0, &block);        // block_id
    PutU64(forged, &block);   // tuple count
    PutU64(0, &block);        // fragment count
    block.append(48, '\0');   // a couple of real tuples' worth of bytes
    size_t off = 0;
    auto r = DecodeBlock(block, &off);
    ASSERT_FALSE(r.ok()) << "forged=" << forged;
    EXPECT_TRUE(r.status().IsInvalid());
  }
}

TEST(SerdeHardeningTest, ForgedFragmentCountRejectedWithoutAllocation) {
  for (uint64_t forged : {~0ull, ~0ull / 17 + 1, 1ull << 61}) {
    std::string block;
    PutU32(1, &block);
    PutU64(0, &block);        // no tuples
    PutU64(forged, &block);   // fragment count
    block.append(34, '\0');
    size_t off = 0;
    auto r = DecodeBlock(block, &off);
    ASSERT_FALSE(r.ok()) << "forged=" << forged;
    EXPECT_TRUE(r.status().IsInvalid());
  }
}

TEST(SerdeHardeningTest, ForgedBlockCountRejected) {
  // Hand-build a batch whose checksum is *valid* so the forged block count
  // reaches the header bound — corruption checks must not be the only
  // thing standing between a forged count and blocks.reserve().
  std::string payload;
  PutU64(1, &payload);               // batch_id
  PutU64(0, &payload);               // seal_time
  PutU64(0, &payload);               // num_tuples
  PutU64(0, &payload);               // num_keys
  PutU64(0, &payload);               // partition_cost
  PutU32(0xFFFFFFFFu, &payload);     // num_blocks: forged
  // Re-encode through the real framing by splicing into a valid envelope:
  // take an empty batch, replace its payload, recompute nothing — instead
  // verify the decoder rejects before checksum use would matter.
  std::string out;
  PutU32(0x50524d42u, &out);  // kBatchMagic
  // FNV-1a + Mix64, mirrored from serde.cc, so the checksum verifies.
  uint64_t h = 1469598103934665603ULL;
  for (char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  PutU64(Mix64(h), &out);
  out += payload;
  auto r = DecodeBatch(out);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("inconsistent"), std::string::npos);
}

TEST(SerdeHardeningTest, RandomGarbageCorpusNeverCrashes) {
  Rng rng(2024);
  for (int round = 0; round < 500; ++round) {
    std::string garbage(rng.NextBounded(300), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    EXPECT_FALSE(DecodeBatch(garbage).ok());
    size_t off = 0;
    (void)DecodeBlock(garbage, &off);  // must return, cleanly, either way
  }
}

TEST(SerdeHardeningTest, TruncatedBlockPayloadInsideValidLengths) {
  // A block whose header is plausible (small counts) but whose payload was
  // cut mid-tuple: the per-field reads must catch it.
  std::string block;
  PutU32(2, &block);
  PutU64(3, &block);   // claims 3 tuples
  PutU64(0, &block);
  block.append(3 * 24, 'x');
  for (size_t cut = 20; cut < block.size(); cut += 7) {
    std::string partial = block.substr(0, cut);
    size_t off = 0;
    auto r = DecodeBlock(partial, &off);
    if (cut < block.size()) {
      EXPECT_FALSE(r.ok()) << "cut=" << cut;
    }
  }
}

// ---- Seeded mutation corpus over the other on-disk decoders ----

constexpr int kMutationRounds = 500;

/// One random mutation of `seed`: flip a few bits, truncate, overwrite a
/// run with random bytes, or splice random bytes in.
std::string Mutate(const std::string& seed, Rng* rng) {
  std::string out = seed;
  switch (rng->NextBounded(4)) {
    case 0: {
      const uint64_t flips = 1 + rng->NextBounded(4);
      for (uint64_t i = 0; i < flips && !out.empty(); ++i) {
        out[rng->NextBounded(out.size())] ^=
            static_cast<char>(1u << rng->NextBounded(8));
      }
      break;
    }
    case 1:
      out.resize(rng->NextBounded(out.size() + 1));
      break;
    case 2: {
      if (out.empty()) break;
      const size_t at = rng->NextBounded(out.size());
      const size_t n =
          std::min<size_t>(out.size() - at, 1 + rng->NextBounded(16));
      for (size_t i = 0; i < n; ++i) {
        out[at + i] = static_cast<char>(rng->NextBounded(256));
      }
      break;
    }
    default: {
      std::string junk(1 + rng->NextBounded(16), '\0');
      for (char& c : junk) c = static_cast<char>(rng->NextBounded(256));
      out.insert(rng->NextBounded(out.size() + 1), junk);
      break;
    }
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A pristine segment file and the record payloads it holds.
struct SegmentSeed {
  std::string bytes;
  std::vector<std::string> payloads;
};

SegmentSeed ReadSeed(const std::string& path) {
  SegmentSeed seed;
  seed.bytes = ReadFile(path);
  auto scan = ScanSegmentFile(path);
  EXPECT_TRUE(scan.ok());
  for (const SegmentRecord& record : scan->records) {
    seed.payloads.push_back(record.payload);
  }
  EXPECT_FALSE(seed.payloads.empty());
  return seed;
}

/// A mutated copy of a segment file. Half the rounds mutate the raw file
/// (exercising the frame scan); the other half mutate one record's payload
/// and re-frame it with a valid CRC, so the mutation reaches the payload
/// decoders behind the checksum.
std::string MutateSegment(const SegmentSeed& seed, Rng* rng) {
  if (rng->NextBounded(2) == 0) return Mutate(seed.bytes, rng);
  std::string out = seed.bytes.substr(0, kSegmentHeaderBytes);
  const size_t victim = rng->NextBounded(seed.payloads.size());
  for (size_t i = 0; i < seed.payloads.size(); ++i) {
    const std::string& payload = seed.payloads[i];
    out += FrameRecord(i == victim ? Mutate(payload, rng) : payload);
  }
  return out;
}

TEST(SerdeHardeningTest, MutatedWindowCheckpointsNeverCrash) {
  WindowState window(std::make_shared<SumReduce>(), 3);
  window.AddBatch({{1, 5.0}, {2, 2.0}, {3, -1.5}});
  window.AddBatch({{1, 3.0}});
  window.AddBatch({{4, 8.0}, {5, 0.5}});
  const std::string checkpoint = window.Checkpoint();
  Rng rng(2025);
  for (int round = 0; round < kMutationRounds; ++round) {
    std::string mutated = Mutate(checkpoint, &rng);
    if (round % 2 == 1 && mutated.size() >= kBlobHeaderBytes) {
      // Past the checksum, into the parser.
      mutated = SealBlob(0x50524d57, mutated.substr(kBlobHeaderBytes));
    }
    WindowState restored(std::make_shared<SumReduce>(), 3);
    const Status st = restored.Restore(mutated);
    if (st.ok()) {
      EXPECT_LE(restored.depth(), 3u);
    } else {
      EXPECT_TRUE(st.IsInvalid()) << st.ToString();
    }
  }
}

TEST(SerdeHardeningTest, MutatedJournalSegmentsNeverCrash) {
  const std::string dir = ::testing::TempDir() + "/serde_mutated_journal";
  std::filesystem::remove_all(dir);
  {
    JournalOptions options;
    options.dir = dir;
    JournalManifest manifest;
    manifest.Set("mode", "single");
    auto writer = JournalWriter::Open(options, manifest);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (uint64_t i = 0; i < 40; ++i) {
      (*writer)->RecordTuple(
          Tuple{static_cast<TimeMicros>(i * 3), i / 4, i % 5 == 0 ? 2.0 : 1.0});
    }
    ASSERT_TRUE((*writer)->AppendBatchTuples(0).ok());
    BatchOutcome outcome;
    outcome.signals[0] = 1.5;
    ASSERT_TRUE((*writer)->AppendOutcome(0, outcome).ok());
    ASSERT_TRUE(
        (*writer)->AppendSwitch(JournalSwitch{0, 0, 1, 2, "skew"}).ok());
    ASSERT_TRUE((*writer)->AppendFault(JournalFault{0, 1, 2, 3}).ok());
    ASSERT_TRUE((*writer)->AppendEnv(0, BatchEnv{0, 9, 1, 2, 3, 64}).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  const std::string seg = dir + "/" + SegmentFileName(0);
  const SegmentSeed seed = ReadSeed(seg);
  Rng rng(2026);
  for (int round = 0; round < kMutationRounds; ++round) {
    WriteFile(seg, MutateSegment(seed, &rng));
    auto journal = ReadJournal(dir);  // any Status, never a throw or abort
    if (journal.ok()) {
      EXPECT_LE(journal->AllTuples().size(), 40u);
    }
  }
}

TEST(SerdeHardeningTest, MutatedStoreSegmentsNeverCrash) {
  const std::string dir = ::testing::TempDir() + "/serde_mutated_store";
  std::filesystem::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kNever;
  {
    auto store = DurableBlockStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const std::string batch = SmallBatchBytes();
    for (uint64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE((*store)->Put(0, id, batch).ok());
    }
    ASSERT_TRUE((*store)->Evict(0, 0).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  const std::string seg = dir + "/" + SegmentFileName(0);
  const SegmentSeed seed = ReadSeed(seg);
  Rng rng(2027);
  for (int round = 0; round < kMutationRounds; ++round) {
    // Open may truncate or delete the file; start each round from a
    // directory holding only the mutated segment.
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    WriteFile(seg, MutateSegment(seed, &rng));
    auto store = DurableBlockStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (uint64_t id : (*store)->LiveBatches(0)) {
      auto bytes = (*store)->Get(0, id);
      if (bytes.ok()) (void)DecodeBatch(*bytes);  // must return, either way
    }
  }
}

}  // namespace
}  // namespace prompt
