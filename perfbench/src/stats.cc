#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {
namespace {

// 1-based nearest rank of the p-th percentile among n samples.
size_t Rank(size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t k = Rank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

double HighestReportablePercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

size_t MinSamplesFor(double p, size_t min_beyond) {
  size_t n = min_beyond + 1;
  while (SamplesBeyond(n, p) < min_beyond) ++n;
  return n;
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n < 4) return t;
  for (int i = 0; i < n; ++i) t.total += v[i];
  t.steal = n == 8 ? v[7] : 0;
  return t;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::vector<size_t> LeastStolen(const std::vector<Block>& blocks, double wall_s,
                                size_t samples) {
  std::vector<size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return blocks[a].steal < blocks[b].steal;
  });
  std::vector<size_t> keep;
  double wall = 0.0;
  size_t n = 0;
  for (size_t i : order) {
    if (wall >= wall_s && n >= samples) break;
    keep.push_back(i);
    wall += blocks[i].wall_s;
    n += blocks[i].samples;
  }
  std::sort(keep.begin(), keep.end());
  return keep;
}

}  // namespace perfbench
