// Summary statistics for the benchmark's repeated samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Samples that lie strictly beyond the nearest-rank p-th percentile of n
/// samples (n - rank(p)).
size_t SamplesBeyond(size_t n, double p);

/// The highest of the standard percentiles {50, 90, 99, 99.9} that still has
/// at least `min_beyond` samples beyond it out of n; 0 when even the median
/// has fewer.
double HighestReportablePercentile(size_t n, size_t min_beyond = 10);

/// Smallest sample count whose p-th percentile has `min_beyond` samples
/// beyond it.
size_t MinSamplesFor(double p, size_t min_beyond = 10);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Machine-wide CPU time counters from /proc/stat (clock ticks): time the
/// hypervisor ran something else while a vCPU of this machine was ready
/// (steal), and all time. Zeros where the file is unavailable.
struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
CpuTicks ReadCpuTicks();

/// Share of CPU time stolen between two readings; 0 when no time passed.
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// A stretch of measurement: its timed wall, its samples, and the share of
/// CPU time stolen from the machine meanwhile.
struct Block {
  double wall_s;
  size_t samples;
  double steal;
};

/// Indices (ascending) of the least-stolen blocks, taken in ascending steal
/// (ties in run order) until they hold `wall_s` seconds and `samples`
/// samples; every block when even all of them fall short.
std::vector<size_t> LeastStolen(const std::vector<Block>& blocks, double wall_s,
                                size_t samples);

}  // namespace perfbench
