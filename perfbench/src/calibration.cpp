// The calibrate workload (repeated cold calibrations of one fixed
// StudyConfig) and the calibration-path per-layer numbers every workload
// reports in its traced run: mean study and fit time, and the phase ledger.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "comm/comm.hpp"
#include "comm/compositor.hpp"
#include "conduit/blueprint.hpp"
#include "dpp/device.hpp"
#include "dpp/profiles.hpp"
#include "math/camera.hpp"
#include "math/colormap.hpp"
#include "mesh/external_faces.hpp"
#include "render/rast/rasterizer.hpp"
#include "render/rt/raytracer.hpp"
#include "render/vr/volume.hpp"
#include "sims/cloverleaf.hpp"
#include "sims/kripke.hpp"
#include "sims/lulesh.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using isr::model::Observation;
using isr::model::RendererKind;
using isr::model::StudyConfig;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double mean_s(const Tracer& tracer, const char* name) {
  const Tracer::Totals t = tracer.totals(name);
  return t.count ? t.total_us / 1e6 / static_cast<double>(t.count) : 0.0;
}

// One rank's data, as the study builds it: a structured grid for the
// grid sims and an external-face surface for all of them.
struct RankData {
  isr::mesh::StructuredGrid grid;
  isr::mesh::TriMesh surface;
  isr::AABB bounds;
};

// Re-runs one study job (sim, tasks, n, image) through the public phase
// calls, each under its own span.
void ledger_job(const StudyConfig& config, const std::string& sim, int tasks, int n, int image,
                Tracer& tracer) {
  std::vector<RankData> ranks(static_cast<std::size_t>(tasks));
  const bool has_grid = sim != "lulesh";
  for (int r = 0; r < tasks; ++r) {
    RankData& rd = ranks[static_cast<std::size_t>(r)];
    isr::conduit::Node data;
    if (sim == "cloverleaf") {
      isr::sims::CloverLeaf proxy(n, n, n, r, tasks);
      {
        Tracer::Scope s(&tracer, "sims.step");
        for (int i = 0; i < config.sim_steps; ++i) proxy.step();
      }
      Tracer::Scope s(&tracer, "mesh.extract");
      proxy.describe(data);
      rd.grid = isr::conduit::blueprint::to_structured(data, "energy");
    } else if (sim == "kripke") {
      isr::sims::Kripke proxy(n, n, n, r, tasks);
      {
        Tracer::Scope s(&tracer, "sims.step");
        for (int i = 0; i < config.sim_steps; ++i) proxy.step();
      }
      Tracer::Scope s(&tracer, "mesh.extract");
      proxy.describe(data);
      rd.grid = isr::conduit::blueprint::to_structured(data, "phi");
    } else {
      isr::sims::Lulesh proxy(n, r, tasks);
      {
        Tracer::Scope s(&tracer, "sims.step");
        for (int i = 0; i < config.sim_steps; ++i) proxy.step();
      }
      Tracer::Scope s(&tracer, "mesh.extract");
      proxy.describe(data);
      rd.surface = isr::mesh::external_faces(isr::conduit::blueprint::to_hex_mesh(data, "e"));
      rd.bounds = rd.surface.bounds();
      continue;
    }
    Tracer::Scope s(&tracer, "mesh.extract");
    rd.grid.normalize_scalars();
    rd.surface = isr::mesh::external_faces(rd.grid);
    rd.bounds = rd.grid.bounds();
  }

  isr::AABB global;
  for (const RankData& rd : ranks) global.expand(rd.bounds);
  const isr::Camera camera = isr::Camera::framing(global, image, image, 0.8f);
  const isr::ColorTable colors = isr::ColorTable::cool_warm();
  const isr::TransferFunction tf(colors, 0.05f, 0.3f);

  for (const std::string& arch : config.archs)
    for (const RendererKind kind : config.renderers) {
      if (kind == RendererKind::kVolume && !has_grid) continue;
      std::vector<isr::comm::RankImage> images(static_cast<std::size_t>(tasks));
      for (std::size_t r = 0; r < ranks.size(); ++r) {
        const RankData& rd = ranks[r];
        isr::dpp::Device dev =
            isr::dpp::Device::simulated(isr::dpp::profile_by_name(arch), mix_seed(r, 7));
        images[r].view_depth = isr::length(rd.bounds.center() - camera.position);
        isr::render::Image& img = images[r].image;
        if (kind == RendererKind::kRayTrace) {
          std::optional<isr::render::RayTracer> rt;
          {
            Tracer::Scope s(&tracer, "render.bvh_build");
            rt.emplace(rd.surface, dev);
          }
          Tracer::Scope s(&tracer, "render.rt");
          rt->render(camera, colors, img);
        } else if (kind == RendererKind::kRasterize) {
          Tracer::Scope s(&tracer, "render.rast");
          isr::render::Rasterizer rast(rd.surface, dev);
          rast.render(camera, colors, img);
        } else {
          Tracer::Scope s(&tracer, "render.vr");
          isr::render::StructuredVolumeRenderer vr(rd.grid, dev);
          isr::render::VolumeRenderOptions opt;
          opt.samples = config.vr_samples;
          vr.render(camera, tf, img, opt);
        }
      }
      Tracer::Scope s(&tracer, "comm.composite");
      isr::comm::Comm comm(tasks);
      isr::comm::composite(comm, images,
                           kind == RendererKind::kVolume ? isr::comm::CompositeMode::kVolume
                                                         : isr::comm::CompositeMode::kSurface,
                           isr::comm::CompositeAlgorithm::kRadixK, /*radix=*/8);
    }
}

}  // namespace

bool bundle_complete(const isr::serve::FittedModels& bundle, const StudyConfig& config) {
  if (!bundle.composite.ok()) return false;
  const bool has_grid_sim = std::any_of(config.sims.begin(), config.sims.end(),
                                        [](const std::string& s) { return s != "lulesh"; });
  for (const std::string& arch : config.archs)
    for (const RendererKind kind : config.renderers) {
      if (kind == RendererKind::kVolume && !has_grid_sim) continue;
      const isr::model::PerfModel* m = bundle.find(arch, kind);
      if (!m || !m->ok()) return false;
    }
  return true;
}

namespace {

// The phase ledger (CalibrationLayer's ledger fields).
void phase_ledger(const StudyConfig& config, Tracer& tracer, CalibrationLayer& layer) {
  // One job per sim: the largest task count, one stratified sample, run
  // serially so the study and the re-run phases do the same work. Study
  // and phases alternate for kRounds rounds and report per-round means;
  // the renderers' OpenMP kernels make single rounds noisy.
  constexpr int kRounds = 2;
  StudyConfig ledger = config;
  ledger.tasks = {*std::max_element(config.tasks.begin(), config.tasks.end())};
  ledger.samples_per_config = 1;
  ledger.threads = 1;
  double study_ms = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const Clock::time_point start = Clock::now();
    const std::vector<Observation> observations = isr::model::run_study(ledger);
    study_ms += seconds_since(start) * 1e3;
    for (const std::string& sim : ledger.sims) {
      const auto it = std::find_if(observations.begin(), observations.end(),
                                   [&](const Observation& o) { return o.sim == sim; });
      if (it != observations.end())
        ledger_job(ledger, sim, it->tasks, it->n_per_task, it->image_size, tracer);
    }
  }
  layer.ledger_study_ms = study_ms / kRounds;
  const auto ms = [&](const char* name) { return tracer.totals(name).total_us / 1e3 / kRounds; };
  layer.step_ms = ms("sims.step");
  layer.extract_ms = ms("mesh.extract");
  layer.bvh_build_ms = ms("render.bvh_build");
  layer.rt_ms = ms("render.rt");
  layer.rast_ms = ms("render.rast");
  layer.vr_ms = ms("render.vr");
  layer.composite_ms = ms("comm.composite");
  const double explained = layer.step_ms + layer.extract_ms + layer.bvh_build_ms +
                           layer.rt_ms + layer.rast_ms + layer.vr_ms + layer.composite_ms;
  layer.unexplained_frac = 1.0 - explained / layer.ledger_study_ms;

  std::printf("phase ledger (one job per sim, tasks=%d, 1 study thread, mean of %d rounds): "
              "run_study %.3f ms\n",
              ledger.tasks.front(), kRounds, layer.ledger_study_ms);
  const std::pair<const char*, double> phases[] = {
      {"sims.step_ms", layer.step_ms},          {"mesh.extract_ms", layer.extract_ms},
      {"render.bvh_build_ms", layer.bvh_build_ms}, {"render.rt_ms", layer.rt_ms},
      {"render.rast_ms", layer.rast_ms},        {"render.vr_ms", layer.vr_ms},
      {"comm.composite_ms", layer.composite_ms}};
  for (const auto& [name, value] : phases)
    std::printf("  %-20s %10.3f ms  %6.2f%% of run_study\n", name, value,
                100.0 * value / layer.ledger_study_ms);
  std::printf("  %-20s %10.4f\n", "calib.unexplained_frac", layer.unexplained_frac);
}

}  // namespace

CalibrationLayer measure_calibration_layer(const StudyConfig& config, int repeats,
                                           Tracer& tracer) {
  CalibrationLayer layer;
  for (int i = 0; i < repeats; ++i) {
    Tracer::Scope iteration(&tracer, "calib.iteration");
    std::vector<Observation> observations;
    {
      Tracer::Scope s(&tracer, "model.study");
      observations = isr::model::run_study(config);
    }
    Tracer::Scope s(&tracer, "serve.fit");
    isr::serve::fit_bundle(config, observations);
  }
  layer.study_s = mean_s(tracer, "model.study");
  layer.fit_s = mean_s(tracer, "serve.fit");
  phase_ledger(config, tracer, layer);
  return layer;
}

namespace {

// Cold calibrations through fresh registries until the window closes.
struct CalibrationWindow {
  double seconds = 0;
  long observations = 0;
  std::vector<double> calib_s;
  long attempted = 0, failed = 0;
};

struct Calibrator {
  std::uint64_t seed = 0;
  std::uint64_t iteration = 0;
  std::vector<Observation> first_corpus;  // iteration 0, for the thread check
  StudyConfig last_config;
  std::shared_ptr<isr::serve::ModelRegistry> last_registry;

  CalibrationWindow window(double seconds, Tracer* tracer) {
    CalibrationWindow w;
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < seconds) {
      const StudyConfig config = calibrate_study(mix_seed(seed, iteration));
      const Clock::time_point t0 = Clock::now();
      auto registry = std::make_shared<isr::serve::ModelRegistry>();
      std::vector<Observation> observations;
      bool complete = false;
      {
        Tracer::Scope it(tracer, "calib.iteration");
        {
          Tracer::Scope s(tracer, "model.study");
          observations = isr::model::run_study(config);
        }
        isr::serve::FittedModels bundle;
        {
          Tracer::Scope s(tracer, "serve.fit");
          bundle = isr::serve::fit_bundle(config, observations);
        }
        complete = bundle_complete(registry->adopt(bundle), config);
      }
      w.calib_s.push_back(seconds_since(t0));
      w.observations += static_cast<long>(observations.size());
      ++w.attempted;
      if (!complete) ++w.failed;
      if (iteration == 0) first_corpus = std::move(observations);
      last_config = config;
      last_registry = std::move(registry);
      ++iteration;
    }
    w.seconds = seconds_since(start);
    return w;
  }
};

void print_calibration_window(const char* label, const CalibrationWindow& w) {
  std::printf("[%s] %ld calibrations, %ld observations in %.3f s\n", label, w.attempted,
              w.observations, w.seconds);
  std::printf("calib_s = %.6f s (median of n=%zu)\n", median(w.calib_s), w.calib_s.size());
  print_metric("calib_obs_per_s", static_cast<double>(w.observations) / w.seconds, "1/s");
}

}  // namespace

Outcome run_calibrate(const Options& options) {
  // Set-up: cold calibrations of a one-sample slice of the workload's
  // StudyConfig through fresh registries (thread pools, allocator and
  // first-touch costs); setup_s is their median.
  std::vector<double> setups;
  long setup_failed = 0;
  for (int i = 0; i < kCalibrateSetupRepeats; ++i) {
    StudyConfig slice = calibrate_study(mix_seed(options.seed, 1000 + static_cast<unsigned>(i)));
    slice.samples_per_config = 1;
    const Clock::time_point t0 = Clock::now();
    isr::serve::ModelRegistry registry;
    const bool complete = bundle_complete(registry.models_for(slice), slice);
    setups.push_back(seconds_since(t0));
    if (!complete) ++setup_failed;
  }
  const double setup_s = median(setups);

  Calibrator calibrator;
  calibrator.seed = options.seed;
  // A traced run splits its seconds between an untraced and a traced window.
  const double window_s = options.trace ? options.seconds / 2 : options.seconds;
  const CalibrationWindow untraced = calibrator.window(window_s, nullptr);
  print_calibration_window("untraced", untraced);
  const double obs_per_s = static_cast<double>(untraced.observations) / untraced.seconds;

  Outcome outcome;
  outcome.attempted = untraced.attempted + kCalibrateSetupRepeats;
  outcome.failed = untraced.failed + setup_failed;
  if (!options.trace) {
    outcome.metrics = end_to_end_metrics(setup_s, obs_per_s, median(untraced.calib_s) * 1e3);
  } else {
    Tracer tracer;
    const CalibrationWindow traced = calibrator.window(window_s, &tracer);
    print_calibration_window("traced", traced);
    outcome.attempted += traced.attempted;
    outcome.failed += traced.failed;
    CalibrationLayer calib;
    calib.study_s = mean_s(tracer, "model.study");
    calib.fit_s = mean_s(tracer, "serve.fit");
    phase_ledger(calibrate_study(options.seed), tracer, calib);
    bool probe_correct = true;
    const QueryLayer q = probe_query_layer(calibrator.last_config, calibrator.last_registry,
                                           options.seed, 1.0, tracer, probe_correct);
    outcome.correct = probe_correct;
    const double traced_obs_per_s = static_cast<double>(traced.observations) / traced.seconds;
    outcome.metrics = per_layer_metrics(q, calib, obs_per_s / traced_obs_per_s - 1.0);
    print_metric("bench.trace_overhead_frac", obs_per_s / traced_obs_per_s - 1.0, "frac");
    if (!options.trace_file.empty() && !tracer.write_chrome_trace(options.trace_file))
      std::fprintf(stderr, "perfbench: cannot write %s\n", options.trace_file.c_str());
  }

  // The N-thread corpus of iteration 0 against a 1-thread run of the same
  // config, observation by observation.
  StudyConfig serial = calibrate_study(mix_seed(options.seed, 0));
  serial.threads = 1;
  std::vector<Observation> reference = isr::model::run_study(serial);
  if (options.corrupt_reference && !reference.empty()) reference[0].total_seconds += 1.0;
  bool identical = reference.size() == calibrator.first_corpus.size();
  for (std::size_t i = 0; identical && i < reference.size(); ++i)
    identical = isr::model::observations_identical(reference[i], calibrator.first_corpus[i]);
  outcome.correct = outcome.correct && identical;

  print_metric("setup_s", setup_s, "s");
  std::printf("fail_frac = %.6f (%ld of %ld calibrations without a complete fit)\n",
              static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted),
              outcome.failed, outcome.attempted);
  std::printf("corpus at %d threads vs 1 thread (%zu observations): %s\n", kCalibrateThreads,
              reference.size(), identical ? "identical" : "DIFFERENT");
  return outcome;
}

}  // namespace perfbench
