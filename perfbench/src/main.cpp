// isr_perfbench: the repository benchmark. One workload per invocation:
//
//   isr_perfbench --workload <advise_cold|advise_hot|advise_recal|calibrate>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Human-readable lines first; the last line of standard output is one JSON
// object {"correct":..,"attempted":..,"failed":..,"metrics":{..}} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when any output differs from its reference, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "isr_perfbench: %s\n"
               "usage: isr_perfbench --workload <advise_cold|advise_hot|advise_recal|calibrate>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]"
               " [--corrupt-reference]\n",
               why);
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      if (!perfbench::parse_workload(value, options.workload)) return usage("unknown workload");
      have_workload = true;
    } else if (arg == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || value[0] == '-')
        return usage("--seed takes a non-negative integer");
    } else if (arg == "--seconds") {
      if (!parse_number(value, number) || number <= 0 || number > 600)
        return usage("--seconds takes a number in (0, 600]");
      options.seconds = number;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace takes 0 or 1");
      options.trace = value[0] == '1';
    } else if (arg == "--trace-file") {
      options.trace_file = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  std::printf("workload %s, seed %llu, %.3f s measured, trace %d\n",
              perfbench::workload_name(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const perfbench::Outcome outcome = options.workload == perfbench::Workload::kCalibrate
                                         ? perfbench::run_calibrate(options)
                                         : perfbench::run_serving(options);
  perfbench::print_metric("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
  if (options.trace && !options.trace_file.empty())
    std::printf("spans written to %s\n", options.trace_file.c_str());

  std::string json = "{\"correct\":";
  json += outcome.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(outcome.attempted);
  json += ",\"failed\":" + std::to_string(outcome.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" + value + ",\"unit\":\"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  if (!outcome.correct) std::fprintf(stderr, "isr_perfbench: outputs differ from the reference\n");
  return outcome.correct ? 0 : 1;
}
