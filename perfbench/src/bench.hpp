// The benchmark binary's shared types: run options, reported metrics, and
// the two workload families (serving in serving.cpp, calibration in
// calibration.cpp). Every measurement goes through the library's public
// API only.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "model/study.hpp"
#include "serve/registry.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  Workload workload = Workload::kAdviseCold;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_file;          // where the traced run writes its spans
  bool corrupt_reference = false;  // self-check: one reference line is wrong
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: the correctness verdict, operations attempted and
// failed (non-kOk responses, incomplete fits), and the metrics of the
// result line (end-to-end untraced, per-layer traced).
struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
};

Outcome run_serving(const Options& options);
Outcome run_calibrate(const Options& options);

// Per-layer numbers of the query path (serve + cluster), from one traced
// closed-loop window, its ClusterMetrics deltas, and isolation legs.
struct QueryLayer {
  double parse_us = 0, serialize_us = 0, jsonl_self_us = 0, eval_us = 0;
  double serve_batch_us = 0, queue_wait_p50_us = 0, service_p50_us = 0;
  double batch_fill = 0, max_queue_depth = 0, cache_hit_rate = 0, rebalanced_frac = 0;
  double shed_frac = 0, degraded_frac = 0, epoch_invalidations = 0;
};

// Per-layer numbers of the calibration path: mean study and fit time of
// one calibration, and the phase ledger over one job per sim.
struct CalibrationLayer {
  double study_s = 0, fit_s = 0;
  double ledger_study_ms = 0;  // run_study over the ledger's jobs, 1 thread
  double step_ms = 0, extract_ms = 0, bvh_build_ms = 0, rt_ms = 0, rast_ms = 0, vr_ms = 0,
         composite_ms = 0;
  double unexplained_frac = 0;
};

// The calibrate workload's query-layer numbers come from a short traced
// probe: the bundle `registry` already holds for `calibration` is served
// through the same 2-shard closed loop advise_cold uses. `correct` is
// cleared when a probe response differs from its serial reference.
QueryLayer probe_query_layer(const isr::model::StudyConfig& calibration,
                             std::shared_ptr<isr::serve::ModelRegistry> registry,
                             std::uint64_t seed, double seconds, Tracer& tracer,
                             bool& correct);

// Times one calibration of `config` (run_study + fit_bundle, spans
// model.study / serve.fit) `repeats` times and the phase ledger over one
// job per sim of `config`.
CalibrationLayer measure_calibration_layer(const isr::model::StudyConfig& config,
                                           int repeats, Tracer& tracer);

// Every (arch, renderer) model the config asks for fitted, and the
// compositing model too.
bool bundle_complete(const isr::serve::FittedModels& bundle,
                     const isr::model::StudyConfig& config);

// The per-layer metrics of the traced result line, in one fixed order for
// every workload. trace_overhead_frac is (untraced / traced throughput) - 1.
std::vector<Metric> per_layer_metrics(const QueryLayer& query, const CalibrationLayer& calib,
                                      double trace_overhead_frac);

// The end-to-end metrics of the untraced result line, same names on every
// workload (see README.md for what each means per workload).
std::vector<Metric> end_to_end_metrics(double setup_s, double throughput_per_s,
                                       double latency_ms);

// Process peak resident set size in MiB.
double peak_rss_mb();

// Prints one human-readable metric line.
void print_metric(const std::string& name, double value, const char* unit);

}  // namespace perfbench
