#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

namespace {

// splitmix64: fully specified, so the same seed gives the same lines on
// every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// The advise key space: every field a uniform draw. 2 archs x 3 renderers
// x 1008 data sizes x 4096 task counts x 3968 image edges x 2397 budgets
// x 1000 horizons x 2 corpora, far beyond any cache.
isr::serve::AdvisorRequest random_request(Rng& rng, int corpus) {
  static const isr::model::RendererKind kinds[] = {isr::model::RendererKind::kRayTrace,
                                                   isr::model::RendererKind::kRasterize,
                                                   isr::model::RendererKind::kVolume};
  isr::serve::AdvisorRequest r;
  r.corpus = corpus_selector(corpus);
  r.arch = rng.below(2) ? "GPU1" : "CPU1";
  r.renderer = kinds[rng.below(3)];
  r.n_per_task = 16 + rng.below(1008);
  r.tasks = 1 + rng.below(4096);
  r.image_edge = 128 + rng.below(3968);
  r.budget_seconds = (4 + rng.below(2397)) / 4.0;  // quarter seconds: exact in decimal
  r.frames = 1 + rng.below(1000);
  return r;
}

// The wire line of a request (the schema serve::parse_request_line reads).
std::string request_line(const isr::serve::AdvisorRequest& r) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"corpus\":\"%s\",\"arch\":\"%s\",\"renderer\":\"%s\",\"n_per_task\":%d,"
                "\"tasks\":%d,\"image_edge\":%d,\"budget_seconds\":%.2f,\"frames\":%d}",
                r.corpus.c_str(), r.arch.c_str(), isr::serve::renderer_token(r.renderer),
                r.n_per_task, r.tasks, r.image_edge, r.budget_seconds, r.frames);
  return buf;
}

Key make_key(const isr::serve::AdvisorRequest& request) {
  return Key{request, request_line(request)};
}

std::string join_batch(const RequestSet& set, const std::uint32_t* ids) {
  std::string bytes;
  for (std::size_t i = 0; i < kBatchLines; ++i) {
    bytes += set.keys[ids[i]].line;
    bytes += '\n';
  }
  return bytes;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kAdviseCold: return "advise_cold";
    case Workload::kAdviseHot: return "advise_hot";
    case Workload::kAdviseRecal: return "advise_recal";
    case Workload::kCalibrate: return "calibrate";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload& workload) {
  for (const Workload w : {Workload::kAdviseCold, Workload::kAdviseHot, Workload::kAdviseRecal,
                           Workload::kCalibrate})
    if (name == workload_name(w)) {
      workload = w;
      return true;
    }
  return false;
}

const char* corpus_selector(int corpus) { return corpus == 0 ? "" : "b"; }

isr::serve::ServiceConfig corpus_service(int corpus) {
  isr::serve::ServiceConfig service;
  isr::model::StudyConfig& c = service.calibration;
  c.archs = {"CPU1", "GPU1"};
  c.renderers = {isr::model::RendererKind::kRayTrace, isr::model::RendererKind::kRasterize,
                 isr::model::RendererKind::kVolume};
  c.sims = {"cloverleaf"};
  c.tasks = {1, 2, 4};
  c.samples_per_config = 3;
  c.min_image = 128;
  c.max_image = 288;
  c.min_n = 20;
  c.max_n = 40;
  c.vr_samples = 200;
  c.sim_steps = 3;
  c.seed = corpus == 0 ? 77 : 1350;
  c.threads = kCorpusStudyThreads;
  // Explicit, so the serial reference and the cluster map configurations
  // with the same constants.
  service.constants.spr_base = 0.93 * c.vr_samples;
  return service;
}

RequestSet make_requests(Workload workload, std::uint64_t seed) {
  RequestSet set;
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(workload) + 1));
  set.pool.reserve(kPoolLines);
  if (workload == Workload::kAdviseCold) {
    set.keys.reserve(kPoolLines);
    for (std::size_t i = 0; i < kPoolLines; ++i) {
      set.keys.push_back(make_key(random_request(rng, static_cast<int>(i % kCorpora))));
      set.pool.push_back(static_cast<std::uint32_t>(i));
    }
  } else {
    std::unordered_set<std::string> seen;
    while (set.keys.size() < kHotKeys) {
      Key key = make_key(random_request(rng, static_cast<int>(set.keys.size() % kCorpora)));
      if (seen.insert(key.line).second) set.keys.push_back(std::move(key));
    }
    // Key k has Zipf rank k + 1; the two hottest keys cover both corpora.
    std::vector<double> cdf(kHotKeys);
    double total = 0.0;
    for (std::size_t k = 0; k < kHotKeys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf[k] = total;
    }
    for (std::size_t i = 0; i < kPoolLines; ++i) {
      const double u = rng.unit() * total;
      const std::size_t k = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      set.pool.push_back(static_cast<std::uint32_t>(std::min(k, kHotKeys - 1)));
    }
  }
  const std::size_t batches = kPoolLines / kBatchLines;
  set.batches.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) set.batches.push_back(join_batch(set, set.batch_keys(b)));
  for (std::uint32_t k = 0; k < kBatchLines; ++k) set.setup_keys.push_back(k);
  set.setup_batch = join_batch(set, set.setup_keys.data());
  return set;
}

isr::model::StudyConfig calibrate_study(std::uint64_t seed) {
  isr::model::StudyConfig c;
  c.archs = {"CPU1", "GPU1"};
  c.renderers = {isr::model::RendererKind::kRayTrace, isr::model::RendererKind::kRasterize,
                 isr::model::RendererKind::kVolume};
  c.sims = {"cloverleaf", "kripke", "lulesh"};
  c.tasks = {1, 2, 4, 8};
  c.samples_per_config = 2;
  c.min_image = 128;
  c.max_image = 288;
  c.min_n = 20;
  c.max_n = 40;
  c.vr_samples = 200;
  c.sim_steps = 3;
  c.seed = seed;
  c.threads = kCalibrateThreads;
  return c;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed ^ (salt * 0xD1B54A32D192ED03ull)).next();
}

}  // namespace perfbench
