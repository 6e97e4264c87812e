// Summary statistics for the benchmark's timings.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// Median of `samples` (mean of the two middle values for an even count);
// 0 for an empty set.
double median(std::vector<double> samples);

// A tail percentile is only trustworthy when enough samples lie beyond it.
constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  double p = 0.0;            // requested percentile, 0..100
  double value = 0.0;        // nearest-rank value; meaningful only if reported
  std::size_t samples = 0;   // sample count the percentile was taken over
  std::size_t beyond = 0;    // samples ranked strictly after the percentile
  bool reported = false;     // beyond >= kMinSamplesBeyond
};

// Nearest-rank percentile of `samples`. It is reported only when at least
// kMinSamplesBeyond samples rank beyond it; otherwise `reported` is false
// and `value` stays 0.
Percentile percentile(std::vector<double> samples, double p);

// "batch_p99_us = 812.3 us (n=52014)" or, when the percentile cannot be
// reported, "batch_p99_us not reported (n=900: 9 beyond p99, need 10)".
std::string describe(const std::string& name, const Percentile& pct, const char* unit);

}  // namespace perfbench
