#include "engine/serde.h"

#include "common/wire.h"
#include "store/segment.h"

namespace prompt {

namespace {

constexpr uint32_t kBatchMagic = 0x50524d42;  // "PRMB"

// Fixed encoded sizes: a block header, a tuple (ts, key, value) and a
// fragment (key, count, split flag).
constexpr uint64_t kBlockHeaderBytes = 20;
constexpr uint64_t kTupleBytes = 24;
constexpr uint64_t kFragmentBytes = 17;

void WriteBlock(const DataBlock& block, wire::Writer* w) {
  w->U32(block.block_id());
  w->U64(block.size());
  w->U64(block.cardinality());
  for (const Tuple& t : block.tuples()) {
    w->I64(t.ts);
    w->U64(t.key);
    w->F64(t.value);
  }
  for (const KeyFragment& f : block.fragments()) {
    w->U64(f.key);
    w->U64(f.count);
    w->U8(f.split ? 1 : 0);
  }
}

Result<DataBlock> ReadBlock(wire::Reader* r) {
  uint32_t block_id = 0;
  uint64_t tuples = 0, fragments = 0;
  if (!r->U32(&block_id) || !r->U64(&tuples) || !r->U64(&fragments)) {
    return Status::Invalid("truncated block header");
  }
  // A count promising more items than the remaining bytes could hold is
  // forged, and must not drive the reserve() calls below.
  if (!r->Count(tuples, kTupleBytes)) {
    return Status::Invalid("block header inconsistent with payload size");
  }
  DataBlock block(block_id);
  block.mutable_tuples().reserve(tuples);
  for (uint64_t i = 0; i < tuples; ++i) {
    Tuple t;
    if (!r->I64(&t.ts) || !r->U64(&t.key) || !r->F64(&t.value)) {
      return Status::Invalid("truncated tuple payload");
    }
    block.Append(t);
  }
  if (!r->Count(fragments, kFragmentBytes)) {
    return Status::Invalid("block header inconsistent with payload size");
  }
  auto& frags = block.mutable_fragments();
  frags.reserve(fragments);
  for (uint64_t i = 0; i < fragments; ++i) {
    KeyFragment f;
    uint8_t split = 0;
    if (!r->U64(&f.key) || !r->U64(&f.count) || !r->U8(&split)) {
      return Status::Invalid("truncated fragment payload");
    }
    f.split = split != 0;
    frags.push_back(f);
  }
  return block;
}

}  // namespace

void EncodeBlock(const DataBlock& block, std::string* out) {
  wire::Writer w(out);
  WriteBlock(block, &w);
}

Result<DataBlock> DecodeBlock(const std::string& bytes, size_t* offset) {
  wire::Reader r(bytes, *offset);
  PROMPT_ASSIGN_OR_RETURN(DataBlock block, ReadBlock(&r));
  *offset = r.offset();
  return block;
}

std::string EncodeBatch(const PartitionedBatch& batch) {
  std::string payload;
  wire::Writer w(&payload);
  w.U64(batch.batch_id);
  w.I64(batch.seal_time);
  w.U64(batch.num_tuples);
  w.U64(batch.num_keys);
  w.I64(batch.partition_cost);
  w.U32(static_cast<uint32_t>(batch.blocks.size()));
  for (const DataBlock& block : batch.blocks) WriteBlock(block, &w);
  return SealBlob(kBatchMagic, payload);
}

Result<PartitionedBatch> DecodeBatch(const std::string& bytes) {
  PROMPT_RETURN_NOT_OK(CheckBlob(kBatchMagic, bytes, "batch"));
  wire::Reader r(bytes, kBlobHeaderBytes);
  PartitionedBatch batch;
  uint32_t num_blocks = 0;
  if (!r.U64(&batch.batch_id) || !r.I64(&batch.seal_time) ||
      !r.U64(&batch.num_tuples) || !r.U64(&batch.num_keys) ||
      !r.I64(&batch.partition_cost) || !r.U32(&num_blocks)) {
    return Status::Invalid("truncated batch header");
  }
  if (!r.Count(num_blocks, kBlockHeaderBytes)) {
    return Status::Invalid("batch header inconsistent with payload size");
  }
  batch.blocks.reserve(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    PROMPT_ASSIGN_OR_RETURN(DataBlock block, ReadBlock(&r));
    batch.blocks.push_back(std::move(block));
  }
  if (!r.done()) {
    return Status::Invalid("trailing bytes after batch payload");
  }
  return batch;
}

}  // namespace prompt
