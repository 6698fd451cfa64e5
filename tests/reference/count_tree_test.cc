#include "reference/count_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace prompt {
namespace {

TEST(CountTreeTest, EmptyTree) {
  CountTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Validate(), 0);
  EXPECT_TRUE(tree.ToDescending().empty());
}

TEST(CountTreeTest, SingleInsert) {
  CountTree tree;
  tree.Insert(42, 7);
  EXPECT_EQ(tree.size(), 1u);
  auto entries = tree.ToDescending();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, 42u);
  EXPECT_EQ(entries[0].count, 7u);
}

TEST(CountTreeTest, DescendingOrderByCountThenKey) {
  CountTree tree;
  tree.Insert(1, 10);
  tree.Insert(2, 30);
  tree.Insert(3, 20);
  tree.Insert(4, 30);
  auto entries = tree.ToDescending();
  ASSERT_EQ(entries.size(), 4u);
  // (30,4) > (30,2)? Descending by (count, key): key 4 before key 2.
  EXPECT_EQ(entries[0].count, 30u);
  EXPECT_EQ(entries[0].key, 4u);
  EXPECT_EQ(entries[1].count, 30u);
  EXPECT_EQ(entries[1].key, 2u);
  EXPECT_EQ(entries[2].count, 20u);
  EXPECT_EQ(entries[3].count, 10u);
}

TEST(CountTreeTest, AscendingIsReverseOfDescending) {
  CountTree tree;
  for (uint64_t k = 0; k < 50; ++k) tree.Insert(k, k * 3 % 17);
  std::vector<CountTree::Entry> asc;
  tree.ForEachAscending(
      [&asc](KeyId k, uint64_t c) { asc.push_back({k, c}); });
  auto desc = tree.ToDescending();
  ASSERT_EQ(asc.size(), desc.size());
  std::reverse(asc.begin(), asc.end());
  for (size_t i = 0; i < asc.size(); ++i) {
    EXPECT_EQ(asc[i].key, desc[i].key);
    EXPECT_EQ(asc[i].count, desc[i].count);
  }
}

TEST(CountTreeTest, EraseRemovesExactEntry) {
  CountTree tree;
  tree.Insert(1, 5);
  tree.Insert(2, 5);
  EXPECT_FALSE(tree.Erase(1, 4));  // wrong count
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.Erase(1, 5));
  EXPECT_EQ(tree.size(), 1u);
  auto entries = tree.ToDescending();
  EXPECT_EQ(entries[0].key, 2u);
}

TEST(CountTreeTest, UpdateRepositionsNode) {
  CountTree tree;
  tree.Insert(1, 1);
  tree.Insert(2, 10);
  EXPECT_TRUE(tree.Update(1, 1, 20));
  auto entries = tree.ToDescending();
  EXPECT_EQ(entries[0].key, 1u);
  EXPECT_EQ(entries[0].count, 20u);
  EXPECT_FALSE(tree.Update(1, 1, 30));  // stale old count
}

TEST(CountTreeTest, ClearResets) {
  CountTree tree;
  for (uint64_t k = 0; k < 100; ++k) tree.Insert(k, k);
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Validate(), 0);
  tree.Insert(5, 5);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(CountTreeTest, SequentialInsertStaysBalanced) {
  CountTree tree;
  for (uint64_t k = 0; k < 4096; ++k) tree.Insert(k, k);  // sorted order
  int height = tree.Validate();
  ASSERT_GT(height, 0);
  // AVL height bound: 1.44 * log2(n+2).
  EXPECT_LE(height, 19);
}

// Property sweep over workload shapes: random interleavings of insert /
// update / erase must preserve AVL invariants and match a reference
// std::multimap ordering.
class CountTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CountTreeFuzzTest, MatchesReferenceUnderRandomOps) {
  Rng rng(GetParam());
  CountTree tree;
  std::map<KeyId, uint64_t> counts;  // key -> current count
  for (int op = 0; op < 20000; ++op) {
    uint64_t key = rng.NextBounded(500);
    auto it = counts.find(key);
    if (it == counts.end()) {
      uint64_t c = 1 + rng.NextBounded(100);
      tree.Insert(key, c);
      counts[key] = c;
    } else if (rng.NextBool(0.8)) {
      uint64_t nc = it->second + 1 + rng.NextBounded(50);
      ASSERT_TRUE(tree.Update(key, it->second, nc));
      it->second = nc;
    } else {
      ASSERT_TRUE(tree.Erase(key, it->second));
      counts.erase(it);
    }
    if (op % 2000 == 0) {
      ASSERT_GE(tree.Validate(), 0) << "AVL invariant broken at op " << op;
    }
  }
  ASSERT_GE(tree.Validate(), 0);
  ASSERT_EQ(tree.size(), counts.size());

  // Final traversal must be exactly the reference sorted by (count, key) desc.
  std::vector<std::pair<uint64_t, KeyId>> expected;
  for (const auto& [k, c] : counts) expected.emplace_back(c, k);
  std::sort(expected.rbegin(), expected.rend());
  auto entries = tree.ToDescending();
  ASSERT_EQ(entries.size(), expected.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].count, expected[i].first);
    EXPECT_EQ(entries[i].key, expected[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountTreeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(CountTreeTest, NodePoolReuseAfterErase) {
  CountTree tree;
  for (int round = 0; round < 10; ++round) {
    for (uint64_t k = 0; k < 100; ++k) tree.Insert(k, k + 1);
    for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(tree.Erase(k, k + 1));
    EXPECT_TRUE(tree.empty());
  }
  EXPECT_GE(tree.Validate(), 0);
}

}  // namespace
}  // namespace prompt
