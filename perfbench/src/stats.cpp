#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.p = p;
  out.samples = samples.size();
  if (samples.empty()) return out;
  // Nearest rank: the smallest rank k (1-based) with k >= p/100 * n.
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.beyond = samples.size() - rank;
  if (out.beyond < kMinSamplesBeyond) return out;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.reported = true;
  return out;
}

std::string describe(const std::string& name, const Percentile& pct, const char* unit) {
  char buf[256];
  if (pct.reported)
    std::snprintf(buf, sizeof buf, "%s = %.3f %s (n=%zu)", name.c_str(), pct.value, unit,
                  pct.samples);
  else
    std::snprintf(buf, sizeof buf, "%s not reported (n=%zu: %zu beyond p%g, need %zu)",
                  name.c_str(), pct.samples, pct.beyond, pct.p, kMinSamplesBeyond);
  return buf;
}

}  // namespace perfbench
