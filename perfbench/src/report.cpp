#include <sys/resource.h>

#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::vector<Metric> end_to_end_metrics(double setup_s, double throughput_per_s,
                                       double latency_ms) {
  return {{"setup_s", setup_s, "s"},
          {"throughput_per_s", throughput_per_s, "1/s"},
          {"latency_ms", latency_ms, "ms"},
          {"peak_rss_mb", peak_rss_mb(), "MiB"}};
}

std::vector<Metric> per_layer_metrics(const QueryLayer& q, const CalibrationLayer& c,
                                      double trace_overhead_frac) {
  return {{"serve.parse_us", q.parse_us, "us"},
          {"serve.serialize_us", q.serialize_us, "us"},
          {"serve.jsonl_self_us", q.jsonl_self_us, "us"},
          {"serve.eval_us", q.eval_us, "us"},
          {"cluster.serve_batch_us", q.serve_batch_us, "us"},
          {"cluster.queue_wait_p50_us", q.queue_wait_p50_us, "us"},
          {"cluster.service_p50_us", q.service_p50_us, "us"},
          {"cluster.batch_fill", q.batch_fill, "count"},
          {"cluster.max_queue_depth", q.max_queue_depth, "count"},
          {"cluster.cache_hit_rate", q.cache_hit_rate, "frac"},
          {"cluster.rebalanced_frac", q.rebalanced_frac, "frac"},
          {"cluster.shed_frac", q.shed_frac, "frac"},
          {"cluster.degraded_frac", q.degraded_frac, "frac"},
          {"model.study_s", c.study_s, "s"},
          {"serve.fit_s", c.fit_s, "s"},
          {"sims.step_ms", c.step_ms, "ms"},
          {"mesh.extract_ms", c.extract_ms, "ms"},
          {"render.bvh_build_ms", c.bvh_build_ms, "ms"},
          {"render.rt_ms", c.rt_ms, "ms"},
          {"render.rast_ms", c.rast_ms, "ms"},
          {"render.vr_ms", c.vr_ms, "ms"},
          {"comm.composite_ms", c.composite_ms, "ms"},
          {"calib.unexplained_frac", c.unexplained_frac, "frac"},
          {"bench.trace_overhead_frac", trace_overhead_frac, "frac"}};
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_metric(const std::string& name, double value, const char* unit) {
  std::printf("%s = %.6f %s\n", name.c_str(), value, unit);
}

}  // namespace perfbench
