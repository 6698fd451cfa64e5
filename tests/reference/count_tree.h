// CountTree: the balanced BST of approximate key frequencies maintained
// during the batching phase (paper §4.1, Fig. 5). Used only by the Alg. 1
// reference accumulator (legacy_chain_accumulator.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/macros.h"
#include "model/tuple.h"

namespace prompt {

/// \brief AVL tree ordered by (count, key) holding one node per distinct key.
///
/// The accumulator inserts a node when a key is first seen and *repositions*
/// it (erase + reinsert, O(log K)) whenever the key's budgeted update fires.
/// At the heartbeat, a reverse in-order traversal yields the quasi-sorted
/// `⟨key, count⟩` list consumed by the batch partitioner — no dedicated
/// post-sort step runs between batching and processing.
///
/// Nodes live in a pooled vector and are addressed by index; Clear() resets
/// the pool in O(1) amortized, matching the per-heartbeat reset of Alg. 1.
class CountTree {
 public:
  struct Entry {
    KeyId key;
    uint64_t count;
  };

  CountTree() = default;
  PROMPT_DISALLOW_COPY_AND_ASSIGN(CountTree);

  /// Inserts a node for `key` with the given count. The (count, key) pair
  /// must not already be present (keys are unique in the accumulator).
  void Insert(KeyId key, uint64_t count) {
    root_ = InsertRec(root_, key, count);
    ++size_;
  }

  /// Removes the node for (key, count). Returns false if absent.
  bool Erase(KeyId key, uint64_t count) {
    bool erased = false;
    root_ = EraseRec(root_, key, count, &erased);
    if (erased) --size_;
    return erased;
  }

  /// Moves a key from old_count to new_count (the budgeted CountTree update
  /// of Alg. 1 lines 10/16). Returns false if (key, old_count) was absent.
  bool Update(KeyId key, uint64_t old_count, uint64_t new_count) {
    if (!Erase(key, old_count)) return false;
    Insert(key, new_count);
    return true;
  }

  /// Number of keys currently tracked.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Bytes of node storage currently held.
  size_t capacity_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           free_list_.capacity() * sizeof(uint32_t);
  }

  /// Resets the tree for the next batch interval.
  void Clear() {
    root_ = kNil;
    size_ = 0;
    nodes_.clear();
    free_list_.clear();
  }

  /// Clear() plus releasing the node storage back to the allocator.
  void Reset() {
    Clear();
    nodes_.shrink_to_fit();
    free_list_.shrink_to_fit();
  }

  /// Visits entries in descending (count, key) order — the partitioner's
  /// input order (largest keys first).
  template <typename F>
  void ForEachDescending(F&& f) const {
    VisitDesc(root_, f);
  }

  /// Visits entries in ascending (count, key) order.
  template <typename F>
  void ForEachAscending(F&& f) const {
    VisitAsc(root_, f);
  }

  /// Materializes the descending traversal.
  std::vector<Entry> ToDescending() const {
    std::vector<Entry> out;
    out.reserve(size_);
    ForEachDescending([&out](KeyId k, uint64_t c) {
      out.push_back(Entry{k, c});
    });
    return out;
  }

  /// Verifies BST ordering and AVL balance (tests only). Returns tree height
  /// or -1 on violation.
  int Validate() const { return ValidateRec(root_); }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Node {
    KeyId key;
    uint64_t count;
    uint32_t left;
    uint32_t right;
    int32_t height;
  };

  static bool Less(uint64_t ca, KeyId ka, uint64_t cb, KeyId kb) {
    return ca < cb || (ca == cb && ka < kb);
  }

  uint32_t NewNode(KeyId key, uint64_t count) {
    uint32_t idx;
    if (!free_list_.empty()) {
      idx = free_list_.back();
      free_list_.pop_back();
    } else {
      idx = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& n = nodes_[idx];
    n.key = key;
    n.count = count;
    n.left = n.right = kNil;
    n.height = 1;
    return idx;
  }

  int32_t HeightOf(uint32_t n) const { return n == kNil ? 0 : nodes_[n].height; }

  void Pull(uint32_t n) {
    nodes_[n].height =
        1 + std::max(HeightOf(nodes_[n].left), HeightOf(nodes_[n].right));
  }

  uint32_t RotateRight(uint32_t y) {
    uint32_t x = nodes_[y].left;
    nodes_[y].left = nodes_[x].right;
    nodes_[x].right = y;
    Pull(y);
    Pull(x);
    return x;
  }

  uint32_t RotateLeft(uint32_t x) {
    uint32_t y = nodes_[x].right;
    nodes_[x].right = nodes_[y].left;
    nodes_[y].left = x;
    Pull(x);
    Pull(y);
    return y;
  }

  int32_t BalanceFactor(uint32_t n) const {
    return HeightOf(nodes_[n].left) - HeightOf(nodes_[n].right);
  }

  uint32_t Rebalance(uint32_t n) {
    Pull(n);
    int32_t bf = BalanceFactor(n);
    if (bf > 1) {
      if (BalanceFactor(nodes_[n].left) < 0) {
        nodes_[n].left = RotateLeft(nodes_[n].left);
      }
      return RotateRight(n);
    }
    if (bf < -1) {
      if (BalanceFactor(nodes_[n].right) > 0) {
        nodes_[n].right = RotateRight(nodes_[n].right);
      }
      return RotateLeft(n);
    }
    return n;
  }

  uint32_t InsertRec(uint32_t n, KeyId key, uint64_t count) {
    if (n == kNil) return NewNode(key, count);
    if (Less(count, key, nodes_[n].count, nodes_[n].key)) {
      nodes_[n].left = InsertRec(nodes_[n].left, key, count);
    } else {
      nodes_[n].right = InsertRec(nodes_[n].right, key, count);
    }
    return Rebalance(n);
  }

  uint32_t MinNode(uint32_t n) const {
    while (nodes_[n].left != kNil) n = nodes_[n].left;
    return n;
  }

  uint32_t EraseRec(uint32_t n, KeyId key, uint64_t count, bool* erased) {
    if (n == kNil) return kNil;
    if (Less(count, key, nodes_[n].count, nodes_[n].key)) {
      nodes_[n].left = EraseRec(nodes_[n].left, key, count, erased);
    } else if (Less(nodes_[n].count, nodes_[n].key, count, key)) {
      nodes_[n].right = EraseRec(nodes_[n].right, key, count, erased);
    } else {
      *erased = true;
      if (nodes_[n].left == kNil || nodes_[n].right == kNil) {
        uint32_t child =
            nodes_[n].left != kNil ? nodes_[n].left : nodes_[n].right;
        free_list_.push_back(n);
        return child;
      }
      // Two children: replace payload with in-order successor, then erase it.
      uint32_t succ = MinNode(nodes_[n].right);
      nodes_[n].key = nodes_[succ].key;
      nodes_[n].count = nodes_[succ].count;
      bool dummy = false;
      nodes_[n].right =
          EraseRec(nodes_[n].right, nodes_[n].key, nodes_[n].count, &dummy);
    }
    return Rebalance(n);
  }

  template <typename F>
  void VisitDesc(uint32_t n, F& f) const {
    if (n == kNil) return;
    VisitDesc(nodes_[n].right, f);
    f(nodes_[n].key, nodes_[n].count);
    VisitDesc(nodes_[n].left, f);
  }

  template <typename F>
  void VisitAsc(uint32_t n, F& f) const {
    if (n == kNil) return;
    VisitAsc(nodes_[n].left, f);
    f(nodes_[n].key, nodes_[n].count);
    VisitAsc(nodes_[n].right, f);
  }

  int ValidateRec(uint32_t n) const {
    if (n == kNil) return 0;
    int hl = ValidateRec(nodes_[n].left);
    int hr = ValidateRec(nodes_[n].right);
    if (hl < 0 || hr < 0) return -1;
    if (std::abs(hl - hr) > 1) return -1;
    if (nodes_[n].left != kNil &&
        !Less(nodes_[nodes_[n].left].count, nodes_[nodes_[n].left].key,
              nodes_[n].count, nodes_[n].key)) {
      return -1;
    }
    if (nodes_[n].right != kNil &&
        !Less(nodes_[n].count, nodes_[n].key, nodes_[nodes_[n].right].count,
              nodes_[nodes_[n].right].key)) {
      return -1;
    }
    int h = 1 + std::max(hl, hr);
    if (h != nodes_[n].height) return -1;
    return h;
  }

  std::vector<Node> nodes_;
  std::vector<uint32_t> free_list_;
  uint32_t root_ = kNil;
  size_t size_ = 0;
};

}  // namespace prompt
