// The serving workloads (advise_cold, advise_hot, advise_recal): closed-loop
// clients push JSON-lines batches through serve::run_jsonl into a
// cluster::ServingCluster, and every response line is checked byte for
// byte against a serial serve::answer_request + serve::to_jsonl reference.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "serve/jsonl.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using isr::serve::AdvisorRequest;
using isr::serve::AdvisorResponse;
using isr::serve::BundlePtr;
using isr::serve::FittedModels;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

int corpus_of(const AdvisorRequest& request) { return request.corpus.empty() ? 0 : 1; }

// One request batch over the wire: bytes in, run_jsonl with the cluster
// as its handler, bytes out. The spans are the traced run's layer
// boundaries: run_jsonl's self time is the JSON edges.
std::string serve_wire(isr::cluster::ServingCluster& cluster, const std::string& bytes,
                       Tracer* tracer) {
  std::istringstream in(bytes);
  std::ostringstream out;
  {
    Tracer::Scope wire(tracer, "serve.run_jsonl");
    isr::serve::run_jsonl(in, out, [&](const std::vector<AdvisorRequest>& requests) {
      Tracer::Scope handler(tracer, "cluster.serve_batch");
      return cluster.serve_batch(requests);
    });
  }
  return out.str();
}

// Reference bytes of every key at one epoch of the default corpus.
struct EpochRefs {
  std::vector<std::string> lines;
  std::vector<unsigned char> ok;
};

// Serial references per default-corpus epoch. Corpus "b" never refits, so
// its keys answer from the same bundle at every epoch.
using Constants = std::array<isr::model::MappingConstants, kCorpora>;

class References {
 public:
  References(const RequestSet& set, const Constants& constants)
      : set_(set), constants_(constants) {}

  void add(std::uint64_t epoch, const FittedModels& default_bundle,
           const FittedModels& b_bundle) {
    auto refs = std::make_shared<EpochRefs>();
    refs->lines.reserve(set_.keys.size());
    refs->ok.reserve(set_.keys.size());
    for (const Key& key : set_.keys) {
      const int c = corpus_of(key.request);
      const AdvisorResponse r = isr::serve::answer_request(c == 0 ? default_bundle : b_bundle,
                                                           constants_[c], key.request);
      refs->lines.push_back(isr::serve::to_jsonl(r));
      refs->ok.push_back(r.ok() ? 1 : 0);
    }
    if (corrupt_ && by_epoch_.empty()) refs->lines[0][1] ^= 1;
    std::lock_guard<std::mutex> lock(mutex_);
    by_epoch_[epoch] = std::move(refs);
  }

  std::shared_ptr<const EpochRefs> get(std::uint64_t epoch) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_epoch_.find(epoch);
    return it == by_epoch_.end() ? nullptr : it->second;
  }

  // Self-check hook: the first epoch's reference for key 0 (part of the
  // set-up batch, so always sent) gets one flipped bit.
  void corrupt_first_epoch() { corrupt_ = true; }

 private:
  const RequestSet& set_;
  const Constants constants_;
  bool corrupt_ = false;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const EpochRefs>> by_epoch_;
};

struct Check {
  long lines = 0;
  long failed = 0;      // lines whose reference is not kOk, plus mismatches
  long mismatches = 0;  // lines matching no reference of a live epoch
  std::string first_mismatch;
};

// Compares a batch's response bytes line by line with the references of
// every epoch live while the batch was in flight.
void check_batch(const std::string& out, const std::uint32_t* ids, std::size_t n,
                 const std::vector<std::shared_ptr<const EpochRefs>>& candidates, Check& check) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++check.lines;
    const std::size_t end = out.find('\n', pos);
    bool matched = false;
    const EpochRefs* hit = nullptr;
    if (end != std::string::npos) {
      const std::string_view line(out.data() + pos, end - pos);
      for (const auto& refs : candidates)
        if (refs->lines[ids[i]] == line) {
          matched = true;
          hit = refs.get();
          break;
        }
      if (!matched && check.first_mismatch.empty())
        check.first_mismatch = std::string(line) + "  (expected " +
                               candidates.front()->lines[ids[i]] + ")";
      pos = end + 1;
    } else if (check.first_mismatch.empty()) {
      check.first_mismatch = "missing response line";
    }
    if (!matched) {
      ++check.mismatches;
      ++check.failed;
    } else if (!hit->ok[ids[i]]) {
      ++check.failed;
    }
  }
  if (pos != out.size()) {
    ++check.mismatches;
    if (check.first_mismatch.empty()) check.first_mismatch = "extra response bytes";
  }
}

// A batch whose live epochs had no references yet when it returned.
struct Deferred {
  std::size_t batch = 0;
  std::uint64_t lo = 0, hi = 0;
  std::string out;
};

struct Client {
  std::size_t cursor = 0;  // position in this client's batch sequence
  std::vector<double> batch_us;  // measured batches' round trips
  Check check;
  std::vector<Deferred> deferred;
};

struct WindowResult {
  double seconds = 0;
  long requests = 0;
  std::vector<double> batch_us;

  double qps() const { return static_cast<double>(requests) / seconds; }
  double mean_us() const {
    double sum = 0;
    for (const double us : batch_us) sum += us;
    return batch_us.empty() ? 0.0 : sum / static_cast<double>(batch_us.size());
  }
};

isr::cluster::ClusterConfig cluster_config(const isr::serve::ServiceConfig& default_corpus,
                                           const isr::serve::ServiceConfig& b_corpus) {
  isr::cluster::ClusterConfig config;
  config.service = default_corpus;
  config.corpora.push_back({corpus_selector(1), b_corpus});
  config.shards = kShards;
  config.cache_entries = kCacheEntries;
  return config;
}

class ServingBench {
 public:
  ServingBench(Workload workload, std::uint64_t seed, isr::cluster::ClusterConfig config,
               bool corrupt)
      : set_(make_requests(workload, seed)), config_(std::move(config)),
        constants_{config_.service.constants, config_.corpora.front().service.constants},
        refs_(set_, constants_), clients_(kClients) {
    if (corrupt) refs_.corrupt_first_epoch();
  }

  // A cold bring-up: cluster construction to the first answered batch that
  // touches both corpora (the lazy calibration fits included). Returns its
  // seconds; the cluster stays up for the measured windows.
  double bring_up(std::shared_ptr<isr::serve::ModelRegistry> registry) {
    cluster_.reset();  // the previous bring-up's threads join untimed
    const Clock::time_point start = Clock::now();
    registry_ = registry ? std::move(registry) : std::make_shared<isr::serve::ModelRegistry>();
    cluster_ = std::make_unique<isr::cluster::ServingCluster>(config_, registry_);
    setup_outs_.push_back(serve_wire(*cluster_, set_.setup_batch, nullptr));
    return us_between(start, Clock::now()) / 1e6;
  }

  // Epoch-1 references from the bundles the last bring-up fitted, then the
  // check of every bring-up's set-up batch (fits are deterministic, so all
  // bring-ups answer from identical bundles).
  void prepare_references() {
    const BundlePtr a = current(0), b = current(1);
    if (!a || !b) {
      ++bundle_failures_;
      return;
    }
    refs_.add(a->epoch, *a, *b);
    for (const std::string& out : setup_outs_)
      check_now(out, set_.setup_keys.data(), a->epoch, a->epoch, setup_check_);
  }

  // Untimed batches per client so caches fill and lazy state settles. When
  // every key fits in the cache, each is first sent once, so the measured
  // window starts with all of them cached.
  void warm_up() {
    if (set_.keys.size() <= kCacheEntries)
      for (std::size_t first = 0; first + kBatchLines <= set_.keys.size(); first += kBatchLines) {
        std::vector<std::uint32_t> ids(kBatchLines);
        std::string bytes;
        for (std::size_t i = 0; i < kBatchLines; ++i) {
          ids[i] = static_cast<std::uint32_t>(first + i);
          bytes += set_.keys[first + i].line + '\n';
        }
        const std::uint64_t lo = epoch();
        const std::string out = serve_wire(*cluster_, bytes, nullptr);
        check_now(out, ids.data(), lo, epoch(), setup_check_);
      }
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([this, c] {
        for (std::size_t i = 0; i < kWarmupBatches; ++i) one_batch(c, nullptr, false);
      });
    for (std::thread& t : threads) t.join();
  }

  // One closed-loop measured window. `writer`, when set, runs on the
  // calling thread for the window's duration (advise_recal's refits).
  using Writer = std::function<void(Clock::time_point deadline, const std::atomic<long>&)>;
  WindowResult window(double seconds, Tracer* tracer, const Writer& writer) {
    for (Client& c : clients_) c.batch_us.clear();
    completed_ = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<Clock::time_point> ends(kClients, start);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([this, c, deadline, tracer, &ends] {
        while (Clock::now() < deadline) one_batch(c, tracer, true);
        ends[static_cast<std::size_t>(c)] = Clock::now();
      });
    if (writer) writer(deadline, completed_);
    for (std::thread& t : threads) t.join();

    WindowResult result;
    result.seconds = us_between(start, *std::max_element(ends.begin(), ends.end())) / 1e6;
    for (const Client& c : clients_)
      result.batch_us.insert(result.batch_us.end(), c.batch_us.begin(), c.batch_us.end());
    result.requests = static_cast<long>(result.batch_us.size() * kBatchLines);
    return result;
  }

  // Checks every deferred batch (all epochs have references by now) and
  // sums the checks of every batch sent.
  Check finish_checks() {
    Check total = setup_check_;
    for (Client& c : clients_) {
      for (const Deferred& d : c.deferred)
        check_now(d.out, set_.batch_keys(d.batch), d.lo, d.hi, c.check);
      c.deferred.clear();
      total.lines += c.check.lines;
      total.failed += c.check.failed;
      total.mismatches += c.check.mismatches;
      if (total.first_mismatch.empty()) total.first_mismatch = c.check.first_mismatch;
    }
    total.failed += bundle_failures_;
    return total;
  }

  // Per-request time of the serve layer's isolation legs over this
  // workload's own lines: parse only, serialize only, and bare
  // answer_batch in kBatchLines-request batches.
  void isolation_legs(Tracer& tracer, QueryLayer& q) const {
    const BundlePtr bundles[kCorpora] = {current(0), current(1)};
    if (!bundles[0] || !bundles[1]) return;
    const Constants& k = constants_;
    const double n = static_cast<double>(set_.pool.size());
    constexpr int kPasses = 3;

    std::vector<double> pass_us;
    for (int p = 0; p < kPasses; ++p) {
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope leg(&tracer, "serve.parse_leg");
      AdvisorRequest request;
      std::string error;
      for (const std::uint32_t id : set_.pool)
        isr::serve::parse_request_line(set_.keys[id].line, request, error);
      pass_us.push_back(us_between(t0, Clock::now()));
    }
    q.parse_us = median(pass_us) / n;

    std::vector<AdvisorResponse> responses(set_.keys.size());
    for (std::size_t i = 0; i < set_.keys.size(); ++i) {
      const int c = corpus_of(set_.keys[i].request);
      responses[i] = isr::serve::answer_request(*bundles[c], k[c], set_.keys[i].request);
    }
    pass_us.clear();
    std::string wire;
    for (int p = 0; p < kPasses; ++p) {
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope leg(&tracer, "serve.serialize_leg");
      for (std::size_t b = 0; b < set_.batches.size(); ++b) {
        wire.clear();
        const std::uint32_t* ids = set_.batch_keys(b);
        for (std::size_t i = 0; i < kBatchLines; ++i) {
          isr::serve::to_jsonl(responses[ids[i]], wire);
          wire += '\n';
        }
      }
      pass_us.push_back(us_between(t0, Clock::now()));
    }
    q.serialize_us = median(pass_us) / n;

    // Bare evaluation: the pool's requests per corpus, kBatchLines at a time.
    std::vector<const AdvisorRequest*> by_corpus[kCorpora];
    for (const std::uint32_t id : set_.pool)
      by_corpus[corpus_of(set_.keys[id].request)].push_back(&set_.keys[id].request);
    std::vector<AdvisorResponse> slots(kBatchLines);
    std::vector<AdvisorResponse*> slot_ptrs(kBatchLines);
    for (std::size_t i = 0; i < kBatchLines; ++i) slot_ptrs[i] = &slots[i];
    isr::serve::EvalScratch scratch;
    pass_us.clear();
    for (int p = 0; p < kPasses; ++p) {
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope leg(&tracer, "serve.eval_leg");
      for (int c = 0; c < kCorpora; ++c)
        for (std::size_t first = 0; first < by_corpus[c].size(); first += kBatchLines) {
          const std::size_t count = std::min(kBatchLines, by_corpus[c].size() - first);
          isr::serve::answer_batch(*bundles[c], k[c], by_corpus[c].data() + first, count,
                                   slot_ptrs.data(), scratch);
        }
      pass_us.push_back(us_between(t0, Clock::now()));
    }
    q.eval_us = median(pass_us) / n;
  }

  isr::cluster::ServingCluster& cluster() { return *cluster_; }
  References& references() { return refs_; }
  std::uint64_t epoch() const { return cluster_->bundle_epoch(corpus_selector(0)); }
  BundlePtr current(int corpus) const {
    return registry_->current(
        cluster_->corpus_fingerprint(corpus_selector(corpus)));
  }

 private:
  void one_batch(int client, Tracer* tracer, bool timed) {
    Client& c = clients_[static_cast<std::size_t>(client)];
    const std::size_t batches = set_.batches.size();
    const std::size_t b =
        (static_cast<std::size_t>(client) + c.cursor++ * kClients) % batches;
    const std::uint64_t lo = epoch();
    const Clock::time_point t0 = Clock::now();
    std::string out = serve_wire(*cluster_, set_.batches[b], tracer);
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t hi = epoch();
    if (timed) {
      c.batch_us.push_back(us_between(t0, t1));
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    std::vector<std::shared_ptr<const EpochRefs>> candidates;
    if (!references_for(lo, hi, candidates)) {
      c.deferred.push_back({b, lo, hi, std::move(out)});
      return;
    }
    check_batch(out, set_.batch_keys(b), kBatchLines, candidates, c.check);
  }

  // The references of every epoch in [lo, hi]; false when one is missing.
  bool references_for(std::uint64_t lo, std::uint64_t hi,
                      std::vector<std::shared_ptr<const EpochRefs>>& out) const {
    for (std::uint64_t e = lo; e <= hi; ++e) {
      auto refs = refs_.get(e);
      if (!refs) return false;
      out.push_back(std::move(refs));
    }
    return true;
  }

  // Checks a batch whose epochs must all have references by now; a missing
  // epoch fails every line.
  void check_now(const std::string& out, const std::uint32_t* ids, std::uint64_t lo,
                 std::uint64_t hi, Check& check) {
    std::vector<std::shared_ptr<const EpochRefs>> candidates;
    if (!references_for(lo, hi, candidates)) {
      check.lines += kBatchLines;
      check.mismatches += kBatchLines;
      check.failed += kBatchLines;
      if (check.first_mismatch.empty()) check.first_mismatch = "no reference for an epoch";
      return;
    }
    check_batch(out, ids, kBatchLines, candidates, check);
  }

  RequestSet set_;
  isr::cluster::ClusterConfig config_;
  const Constants constants_;
  References refs_;
  std::shared_ptr<isr::serve::ModelRegistry> registry_;
  std::unique_ptr<isr::cluster::ServingCluster> cluster_;  // declared after its registry
  std::vector<std::string> setup_outs_;
  Check setup_check_;
  long bundle_failures_ = 0;
  std::vector<Client> clients_;
  std::atomic<long> completed_{0};
};

// ClusterMetrics counters over one window, plus the cumulative stage
// histograms.
void cluster_layer(const isr::cluster::ClusterMetrics& m0, const isr::cluster::ClusterMetrics& m1,
                   QueryLayer& q) {
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  long evaluated0 = 0, evaluated1 = 0;
  for (const long v : m0.shard_queries) evaluated0 += v;
  for (const long v : m1.shard_queries) evaluated1 += v;
  const double queries = static_cast<double>(m1.queries - m0.queries);
  q.queue_wait_p50_us = m1.queue_wait.percentile_us(50);
  q.service_p50_us = m1.service.percentile_us(50);
  q.batch_fill = ratio(static_cast<double>(evaluated1 - evaluated0),
                       static_cast<double>(m1.batches - m0.batches));
  q.max_queue_depth = static_cast<double>(m1.max_queue_depth);
  q.cache_hit_rate = ratio(static_cast<double>(m1.cache_hits - m0.cache_hits),
                           static_cast<double>(m1.cache_lookups - m0.cache_lookups));
  q.rebalanced_frac =
      ratio(static_cast<double>(m1.rebalanced_queries - m0.rebalanced_queries), queries);
  q.shed_frac = ratio(static_cast<double>(m1.shed_queries - m0.shed_queries), queries);
  q.degraded_frac =
      ratio(static_cast<double>(m1.degraded_queries - m0.degraded_queries), queries);
  q.epoch_invalidations =
      ratio(static_cast<double>(m1.epoch_invalidations - m0.epoch_invalidations),
            static_cast<double>(m1.refits - m0.refits));
}

// A traced window's query-layer numbers: span self times, cluster
// counters, isolation legs.
QueryLayer traced_query_layer(ServingBench& bench, double seconds, Tracer& tracer,
                              const ServingBench::Writer& writer, WindowResult& traced) {
  QueryLayer q;
  const isr::cluster::ClusterMetrics m0 = bench.cluster().metrics();
  traced = bench.window(seconds, &tracer, writer);
  cluster_layer(m0, bench.cluster().metrics(), q);
  const Tracer::Totals wire = tracer.totals("serve.run_jsonl");
  const Tracer::Totals handler = tracer.totals("cluster.serve_batch");
  if (wire.count) q.jsonl_self_us = wire.self_us / static_cast<double>(wire.count);
  if (handler.count) q.serve_batch_us = handler.total_us / static_cast<double>(handler.count);
  bench.isolation_legs(tracer, q);
  return q;
}

void print_window(const char* label, const WindowResult& w) {
  std::printf("[%s] %ld requests in %.3f s\n", label, w.requests, w.seconds);
  print_metric("query_qps", w.qps(), "1/s");
  std::printf("batch_mean_us = %.3f us (n=%zu)\n", w.mean_us(), w.batch_us.size());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    char name[32];
    std::snprintf(name, sizeof name, "batch_p%g_us", p);
    std::printf("%s\n", describe(name, percentile(w.batch_us, p), "us").c_str());
  }
}

}  // namespace

Outcome run_serving(const Options& options) {
  const Workload workload = options.workload;
  ServingBench bench(workload, options.seed,
                     cluster_config(corpus_service(0), corpus_service(1)),
                     options.corrupt_reference);
  const isr::model::StudyConfig study0 = corpus_service(0).calibration;

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) setups.push_back(bench.bring_up(nullptr));
  const double setup_s = median(setups);
  bench.prepare_references();
  bench.warm_up();

  // advise_recal's writer: recalibrate the default corpus after every
  // kRecalEveryBatches completed batches, wait for the swap, and publish
  // the new epoch's references.
  std::vector<double> refit_s;
  long refits = 0, refit_failures = 0;
  ServingBench::Writer writer;
  if (workload == Workload::kAdviseRecal)
    writer = [&](Clock::time_point deadline, const std::atomic<long>& completed) {
      long next = completed.load() + kRecalEveryBatches;
      while (Clock::now() < deadline) {
        if (completed.load() < next) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t want = bench.cluster().recalibrate(corpus_selector(0));
        bench.cluster().wait_refits();
        refit_s.push_back(us_between(t0, Clock::now()) / 1e6);
        ++refits;
        const BundlePtr a = bench.current(0), b = bench.current(1);
        if (!a || !b || want == 0 || a->epoch != want || !bundle_complete(*a, study0))
          ++refit_failures;
        if (a && b) bench.references().add(a->epoch, *a, *b);
        next = completed.load() + kRecalEveryBatches;
      }
    };

  // A traced run splits its seconds between an untraced and a traced window.
  const double window_s = options.trace ? options.seconds / 2 : options.seconds;
  const WindowResult untraced = bench.window(window_s, nullptr, writer);
  print_window("untraced", untraced);
  const double qps = untraced.qps();

  Outcome outcome;
  if (!options.trace) {
    // The gated latency is the mean round trip, not a percentile: the host
    // the benchmark was tuned on switches between a fast and a 1.5x slower
    // mode for seconds at a time, and a percentile jumps from one mode to
    // the other when the slow share of a run crosses it (README.md).
    outcome.metrics = end_to_end_metrics(setup_s, qps, untraced.mean_us() / 1e3);
  } else {
    Tracer tracer;
    WindowResult traced;
    const QueryLayer q = traced_query_layer(bench, window_s, tracer, writer, traced);
    print_window("traced", traced);
    const double traced_qps = traced.qps();
    const CalibrationLayer calib = measure_calibration_layer(study0, kCorpora, tracer);
    outcome.metrics = per_layer_metrics(q, calib, qps / traced_qps - 1.0);
    print_metric("bench.trace_overhead_frac", qps / traced_qps - 1.0, "frac");
    // Only advise_recal refits; its sweeps per refit stay off the result
    // line, which carries the per-layer metrics of the gated workloads.
    if (workload == Workload::kAdviseRecal)
      print_metric("cluster.epoch_invalidations", q.epoch_invalidations, "count");
    if (!options.trace_file.empty() && !tracer.write_chrome_trace(options.trace_file))
      std::fprintf(stderr, "perfbench: cannot write %s\n", options.trace_file.c_str());
  }

  const Check check = bench.finish_checks();
  outcome.attempted = check.lines + refits;
  outcome.failed = check.failed + refit_failures;
  outcome.correct = check.mismatches == 0;
  print_metric("setup_s", setup_s, "s");
  std::printf("fail_frac = %.6f (%ld of %ld)\n",
              static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted),
              outcome.failed, outcome.attempted);
  if (workload == Workload::kAdviseRecal)
    std::printf("refit_s = %.6f s (median of n=%zu refits)\n", median(refit_s), refit_s.size());
  std::printf("response lines checked: %ld, mismatches: %ld\n", check.lines, check.mismatches);
  if (!check.first_mismatch.empty())
    std::fprintf(stderr, "perfbench: first mismatch: %s\n", check.first_mismatch.c_str());
  std::printf("cluster metrics: %s\n", bench.cluster().metrics().to_jsonl().c_str());
  return outcome;
}

QueryLayer probe_query_layer(const isr::model::StudyConfig& calibration,
                             std::shared_ptr<isr::serve::ModelRegistry> registry,
                             std::uint64_t seed, double seconds, Tracer& tracer,
                             bool& correct) {
  isr::serve::ServiceConfig service = corpus_service(0);
  service.calibration = calibration;
  service.constants.spr_base = 0.93 * calibration.vr_samples;
  ServingBench bench(Workload::kAdviseCold, seed, cluster_config(service, service), false);
  bench.bring_up(std::move(registry));
  bench.prepare_references();
  bench.warm_up();
  WindowResult traced;
  const QueryLayer q = traced_query_layer(bench, seconds, tracer, nullptr, traced);
  print_window("query-layer probe, traced", traced);
  const Check check = bench.finish_checks();
  correct = check.mismatches == 0;
  if (!correct)
    std::fprintf(stderr, "perfbench: probe mismatch: %s\n", check.first_mismatch.c_str());
  return q;
}

}  // namespace perfbench
