// The benchmark's workloads and every input that defines them. All sizes
// are pinned here: no environment variable (ISR_BENCH_SCALE, ISR_THREADS,
// ISR_FAULT_*) can change what a named workload is. The only run-time input
// is the seed, which selects the generated request lines and study seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/study.hpp"
#include "serve/advisor.hpp"

namespace perfbench {

enum class Workload { kAdviseCold, kAdviseHot, kAdviseRecal, kCalibrate };

const char* workload_name(Workload workload);
bool parse_workload(const std::string& name, Workload& workload);

// --- Serving (advise_*) --------------------------------------------------
// Load comes from one process: kClients closed-loop client threads, each
// sending kBatchLines-line JSON-lines batches through serve::run_jsonl into
// a kShards-shard cluster. Clients plus shard workers equal the 4 cores
// the benchmark was sized for.
constexpr int kClients = 2;
constexpr int kShards = 2;
constexpr std::size_t kCacheEntries = 1024;
constexpr std::size_t kBatchLines = 32;
// Lines each workload generates and clients cycle through (4096 batches).
// For advise_cold every line is a distinct key: 128x the cache size.
constexpr std::size_t kPoolLines = 131072;
// advise_hot / advise_recal: Zipf(kZipfExponent) over kHotKeys distinct
// requests, fewer than the cache holds.
constexpr std::size_t kHotKeys = 256;
constexpr double kZipfExponent = 1.0;
// Untimed batches per client before the measured window.
constexpr std::size_t kWarmupBatches = 256;
// advise_recal: the main thread recalibrates the default corpus after
// every kRecalEveryBatches completed batches.
constexpr long kRecalEveryBatches = 512;
// Cold bring-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
// Worker threads of each corpus calibration (the lazy set-up fits and the
// refit's drift study).
constexpr int kCorpusStudyThreads = 2;

// The two resident corpora: 0 is the default corpus (selector ""), 1 is
// the named corpus "b". Both are the advisor's quick cloverleaf corpus on
// CPU1/GPU1 with every renderer; they differ in study seed.
constexpr int kCorpora = 2;
const char* corpus_selector(int corpus);
isr::serve::ServiceConfig corpus_service(int corpus);

// One distinct request and its wire line.
struct Key {
  isr::serve::AdvisorRequest request;
  std::string line;
};

// The generated input of one serving workload.
struct RequestSet {
  std::vector<Key> keys;             // distinct requests, key id = index
  std::vector<std::uint32_t> pool;   // key id of each sent line, in send order
  std::vector<std::string> batches;  // wire bytes of pool batch b (kBatchLines lines)
  std::string setup_batch;           // the first kBatchLines keys, both corpora
  std::vector<std::uint32_t> setup_keys;

  const std::uint32_t* batch_keys(std::size_t b) const { return &pool[b * kBatchLines]; }
};

// Lines for advise_cold (every line a uniform draw over the key space,
// corpus alternating by line) or advise_hot / advise_recal (Zipf draws over
// kHotKeys distinct keys). Same seed, same bytes.
RequestSet make_requests(Workload workload, std::uint64_t seed);

// --- Calibration (calibrate) ---------------------------------------------
// The fixed calibrate StudyConfig: all three sims, CPU1/GPU1, all three
// renderers, tasks {1,2,4,8}, two stratified samples per configuration
// over the advisor calibration's image and data ranges (128 observations),
// run on kCalibrateThreads threads. `seed` is the study seed.
constexpr int kCalibrateThreads = 4;
// Cold set-up calibrations per calibrate run; setup_s is their median.
// Each takes under a second, so more of them than serving bring-ups.
constexpr int kCalibrateSetupRepeats = 5;
isr::model::StudyConfig calibrate_study(std::uint64_t seed);

// A splitmix64 step: the benchmark's one source of derived seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
