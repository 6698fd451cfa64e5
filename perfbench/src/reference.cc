#include "reference.h"

#include <utility>

namespace perfbench {

void ReferenceWindow::AddBatch(uint64_t batch_id, std::vector<KeyId> keys) {
  batches_.push_back(Batch{batch_id, std::move(keys)});
  // Keep one batch beyond the window so the window that ended one batch
  // ago (the engine lags the generator by one batch) stays answerable.
  while (batches_.size() > window_batches_ + 1u) batches_.pop_front();
}

WindowMap ReferenceWindow::WindowAt(uint64_t batch_id) const {
  WindowMap out;
  if (batches_.empty() || batch_id > batches_.back().id ||
      batch_id < batches_.front().id) {
    return out;
  }
  const uint64_t lo = batch_id + 1 >= window_batches_
                          ? batch_id + 1 - window_batches_
                          : 0;
  if (lo < batches_.front().id) return out;  // window start already dropped
  for (const Batch& b : batches_) {
    if (b.id < lo || b.id > batch_id) continue;
    for (KeyId k : b.keys) out[k] += 1.0;
  }
  return out;
}

std::string DiffWindows(const WindowMap& got, const WindowMap& want) {
  for (const auto& [key, count] : want) {
    auto it = got.find(key);
    if (it == got.end()) {
      return "key " + std::to_string(key) + " missing (want " +
             std::to_string(count) + ")";
    }
    if (it->second != count) {
      return "key " + std::to_string(key) + ": got " +
             std::to_string(it->second) + ", want " + std::to_string(count);
    }
  }
  if (got.size() != want.size()) {
    return "window has " + std::to_string(got.size()) + " keys, want " +
           std::to_string(want.size());
  }
  return "";
}

}  // namespace perfbench
