// Self-tests of the benchmark's own code: the percentile rule, seeded
// input generation, and the key-space sizes that define the advise
// workloads. Exits nonzero on the first failed expectation.
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/cache.hpp"
#include "inputs.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));  // unsorted
  return v;
}

std::size_t distinct_keys(const perfbench::RequestSet& set) {
  std::unordered_set<std::string> keys;
  for (const std::uint32_t id : set.pool)
    keys.insert(isr::cluster::canonical_request_key(set.keys[id].request));
  return keys.size();
}

}  // namespace

int main() {
  using perfbench::Workload;

  // The percentile rule: reported only with >= 10 samples beyond it.
  const perfbench::Percentile p99_1000 = perfbench::percentile(ramp(1000), 99);
  expect(p99_1000.reported && p99_1000.beyond == 10 && p99_1000.value == 990.0,
         "p99 of 1000 samples is reported (10 beyond) at rank 990");
  const perfbench::Percentile p99_999 = perfbench::percentile(ramp(999), 99);
  expect(!p99_999.reported && p99_999.beyond == 9 && p99_999.samples == 999,
         "p99 of 999 samples is not reported (9 beyond)");
  const perfbench::Percentile p50_19 = perfbench::percentile(ramp(19), 50);
  expect(!p50_19.reported, "p50 of 19 samples is not reported (9 beyond)");
  expect(!perfbench::percentile({}, 50).reported, "empty sample set reports nothing");
  const std::string shown = perfbench::describe("batch_p99_us", p99_1000, "us");
  expect(shown.find("n=1000") != std::string::npos, "a reported percentile prints its count");
  expect(perfbench::describe("batch_p99_us", p99_999, "us").find("n=999") != std::string::npos,
         "an unreported percentile prints its count");
  expect(perfbench::median({3, 1, 2}) == 2.0 && perfbench::median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");

  // Seeded inputs: same seed, same bytes; another seed, other bytes.
  for (const Workload w : {Workload::kAdviseCold, Workload::kAdviseHot}) {
    const perfbench::RequestSet a = perfbench::make_requests(w, 7);
    const perfbench::RequestSet b = perfbench::make_requests(w, 7);
    const perfbench::RequestSet c = perfbench::make_requests(w, 8);
    const std::string name = perfbench::workload_name(w);
    expect(a.batches == b.batches && a.setup_batch == b.setup_batch,
           (name + ": same seed gives identical request bytes").c_str());
    expect(a.batches != c.batches, (name + ": another seed gives other bytes").c_str());
  }
  expect(perfbench::calibrate_study(perfbench::mix_seed(7, 0)).seed ==
                 perfbench::calibrate_study(perfbench::mix_seed(7, 0)).seed &&
             perfbench::mix_seed(7, 0) != perfbench::mix_seed(8, 0),
         "calibrate: study seeds follow the workload seed");

  // Key spaces against the cluster cache.
  const std::size_t cold = distinct_keys(perfbench::make_requests(Workload::kAdviseCold, 3));
  const std::size_t hot = distinct_keys(perfbench::make_requests(Workload::kAdviseHot, 3));
  std::printf("distinct keys: advise_cold %zu, advise_hot %zu, cache %zu\n", cold, hot,
              perfbench::kCacheEntries);
  expect(cold >= 100 * perfbench::kCacheEntries, "advise_cold: distinct keys >= 100x the cache");
  expect(hot <= perfbench::kCacheEntries, "advise_hot: distinct keys <= the cache");

  // The set-up batch touches both corpora.
  const perfbench::RequestSet hot_set = perfbench::make_requests(Workload::kAdviseHot, 3);
  bool both = false;
  for (std::size_t i = 1; i < hot_set.setup_keys.size(); ++i)
    both = both || hot_set.keys[hot_set.setup_keys[i]].request.corpus !=
                       hot_set.keys[hot_set.setup_keys[0]].request.corpus;
  expect(both, "the set-up batch touches both corpora");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
