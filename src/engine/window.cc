#include "engine/window.h"

#include <algorithm>

#include "common/wire.h"
#include "store/segment.h"

namespace prompt {

namespace {

constexpr uint32_t kWindowMagic = 0x50524d57;  // "PRMW"
constexpr uint64_t kEntryBytes = 16;           // key u64 + value f64

}  // namespace

void WindowState::Fold(const KV& kv) {
  bool inserted = false;
  double& value = result_.GetOrInsert(kv.key, &inserted);
  if (inserted) value = identity_;
  value = reduce_->Combine(value, kv.value);
}

void WindowState::Retract(const KV& kv) {
  double* value = result_.Find(kv.key);
  if (value == nullptr) return;
  *value = reduce_->Inverse(*value, kv.value);
  if (*value == identity_) result_.Erase(kv.key);
}

void WindowState::Recompute() {
  result_.Clear();
  for (const auto& batch : history_) {
    for (const KV& kv : batch) Fold(kv);
  }
}

void WindowState::InvalidateView() {
  if (!view_valid_) return;
  std::unordered_map<KeyId, double>().swap(view_);
  view_valid_ = false;
}

void WindowState::AddBatch(std::vector<KV> batch_output) {
  InvalidateView();
  const bool incremental = reduce_->invertible();
  if (incremental) {
    for (const KV& kv : batch_output) Fold(kv);
  }
  history_.push_back(std::move(batch_output));
  bool expired = false;
  if (history_.size() > window_batches_) {
    if (incremental) {
      for (const KV& kv : history_.front()) Retract(kv);
    }
    history_.pop_front();
    expired = true;
  }
  if (!incremental) {
    // Recompute only when needed: before the window fills, folding the new
    // batch is enough; after an expiry the whole window is rebuilt.
    if (expired) {
      Recompute();
    } else {
      for (const KV& kv : history_.back()) Fold(kv);
    }
  }
}

Status WindowState::ReplaceBatch(size_t index, std::vector<KV> batch_output) {
  if (index >= history_.size()) {
    return Status::OutOfRange("no batch at window index " +
                              std::to_string(index));
  }
  InvalidateView();
  if (reduce_->invertible()) {
    for (const KV& kv : history_[index]) Retract(kv);
    for (const KV& kv : batch_output) Fold(kv);
    history_[index] = std::move(batch_output);
  } else {
    history_[index] = std::move(batch_output);
    Recompute();
  }
  return Status::OK();
}

const std::unordered_map<KeyId, double>& WindowState::Result() const {
  if (!view_valid_) {
    view_.reserve(result_.size());
    result_.ForEach([this](uint64_t key, double value) {
      view_.emplace(key, value);
    });
    view_valid_ = true;
  }
  return view_;
}

std::vector<KV> WindowState::TopK(size_t k) const {
  std::vector<KV> all;
  all.reserve(result_.size());
  result_.ForEach(
      [&all](uint64_t key, double value) { all.push_back(KV{key, value}); });
  size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + n, all.end(),
                    [](const KV& a, const KV& b) {
                      return a.value != b.value ? a.value > b.value
                                                : a.key < b.key;
                    });
  all.resize(n);
  return all;
}

std::string WindowState::Checkpoint() const {
  std::string payload;
  wire::Writer w(&payload);
  w.U64(window_batches_);
  w.U64(history_.size());
  for (const auto& batch : history_) {
    w.U64(batch.size());
    for (const KV& kv : batch) {
      w.U64(kv.key);
      w.F64(kv.value);
    }
  }
  return SealBlob(kWindowMagic, payload);
}

Status WindowState::Restore(const std::string& bytes) {
  PROMPT_RETURN_NOT_OK(CheckBlob(kWindowMagic, bytes, "checkpoint"));
  wire::Reader r(bytes, kBlobHeaderBytes);
  uint64_t window_batches = 0, num_batches = 0;
  if (!r.U64(&window_batches) || !r.U64(&num_batches)) {
    return Status::Invalid("truncated checkpoint header");
  }
  if (window_batches != window_batches_) {
    return Status::Invalid("checkpoint window geometry mismatch");
  }
  if (num_batches > window_batches) {
    return Status::Invalid("checkpoint holds more batches than the window");
  }
  std::deque<std::vector<KV>> history;
  for (uint64_t b = 0; b < num_batches; ++b) {
    uint64_t n = 0;
    if (!r.U64(&n)) return Status::Invalid("truncated checkpoint batch");
    if (!r.Count(n, kEntryBytes)) {
      return Status::Invalid("checkpoint batch size inconsistent");
    }
    std::vector<KV> batch;
    batch.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      KV kv;
      if (!r.U64(&kv.key) || !r.F64(&kv.value)) {
        return Status::Invalid("truncated checkpoint entry");
      }
      batch.push_back(kv);
    }
    history.push_back(std::move(batch));
  }
  if (!r.done()) return Status::Invalid("trailing bytes in checkpoint");
  // Rebuild the derived result map by replaying the retained outputs.
  InvalidateView();
  history_.clear();
  result_.Clear();
  for (auto& batch : history) AddBatch(std::move(batch));
  return Status::OK();
}

}  // namespace prompt
