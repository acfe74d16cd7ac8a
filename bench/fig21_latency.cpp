// Figure 21 / section 4.4: end-to-end latency. Td (preamble detection)
// and Tt (sample serialization) come from the hardware model; Tp, the
// server-side processing time (MUSIC spectra for all APs + heatmap +
// hill climbing), is measured here with google-benchmark on the real
// pipeline. The paper measured Tp ~ 100 ms (Matlab, Xeon 2.8 GHz) with
// total-excluding-bus ~= 100 ms.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/latency.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "linalg/subspace.h"
#include "testbed/runner.h"

using namespace arraytrack;

namespace {

struct Fixture {
  Fixture() : tb(testbed::OfficeTestbed::standard()) {
    testbed::RunnerConfig rc;
    runner = std::make_unique<testbed::ExperimentRunner>(&tb, rc);
    for (std::size_t f = 0; f < 3; ++f)
      runner->system().transmit(0, tb.clients[12],
                                double(f) * 0.03);
  }
  testbed::OfficeTestbed tb;
  std::unique_ptr<testbed::ExperimentRunner> runner;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Spectrum computation for all six APs (three frames each) — the
// "AoA spectrum computation + multipath processing" half of Tp.
void BM_SpectraAllAps(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    auto spectra = f.runner->system().server().client_spectra(0, 0.1);
    benchmark::DoNotOptimize(spectra);
  }
}
BENCHMARK(BM_SpectraAllAps)->Unit(benchmark::kMillisecond);

// The synthesis step (10 cm grid + hill climbing) — the paper's
// dominant Tp term.
void BM_SynthesisGridAndHillClimb(benchmark::State& state) {
  auto& f = fixture();
  const auto spectra = f.runner->system().server().client_spectra(0, 0.1);
  for (auto _ : state) {
    auto fix = f.runner->system().server().locate_from_spectra(spectra);
    benchmark::DoNotOptimize(fix);
  }
}
BENCHMARK(BM_SynthesisGridAndHillClimb)->Unit(benchmark::kMillisecond);

// The same synthesis step at threads = 1, the service's deployment
// (each worker locates on its own thread). The coarse-to-fine sweep
// runs on the calling thread and only a dense-fallback row fans out,
// so this is the serial cost a worker pays per fix at any pool width.
void BM_SynthesisSerial(benchmark::State& state) {
  auto& f = fixture();
  const auto& server = f.runner->system().server();
  core::LocalizerOptions opt = server.localizer().options();
  opt.threads = 1;
  const core::Localizer loc(server.localizer().bounds(), opt);
  const auto spectra = server.client_spectra(0, 0.1);
  for (auto _ : state) {
    auto fix = loc.locate(spectra);
    benchmark::DoNotOptimize(fix);
  }
}
BENCHMARK(BM_SynthesisSerial)->Unit(benchmark::kMillisecond);

// The same synthesis step through the dense float sweep
// (Localizer::locate_dense) — the baseline the coarse-to-fine speedup
// is read against (fixes are byte-identical between the two, so only
// the sweep cost differs).
void BM_SynthesisFloatSweep(benchmark::State& state) {
  auto& f = fixture();
  const auto& server = f.runner->system().server();
  const auto spectra = server.client_spectra(0, 0.1);
  for (auto _ : state) {
    auto fix = server.localizer().locate_dense(spectra);
    benchmark::DoNotOptimize(fix);
  }
}
BENCHMARK(BM_SynthesisFloatSweep)->Unit(benchmark::kMillisecond);

// Full server-side location computation.
void BM_FullLocate(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    auto fix = f.runner->system().locate(0, 0.1);
    benchmark::DoNotOptimize(fix);
  }
}
BENCHMARK(BM_FullLocate)->Unit(benchmark::kMillisecond);

// One 8-antenna MUSIC spectrum (eigendecomposition + 720-bin sweep).
void BM_SingleMusicSpectrum(benchmark::State& state) {
  auto& f = fixture();
  auto& ap = f.runner->system().ap(0);
  const auto& frame = ap.buffer().at(0);
  core::ApProcessor proc(&ap);
  for (auto _ : state) {
    auto spec = proc.process(frame);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_SingleMusicSpectrum)->Unit(benchmark::kMillisecond);

// The covariance -> MUSIC-spectrum stage with the per-client subspace
// tracker in the loop, cycling this client's captured frames so the
// tracker sees production-shaped frame-to-frame covariance jitter.
// Compare against BM_MusicSpectrumExact, the full-Jacobi path.
void BM_MusicSpectrumTracked(benchmark::State& state) {
  auto& f = fixture();
  auto& ap = f.runner->system().ap(0);
  core::ApProcessor proc(&ap);
  std::vector<linalg::CMatrix> covs;
  for (std::size_t i = 0; i < ap.buffer().size(); ++i)
    covs.push_back(proc.row_covariance(ap.buffer().at(i)));
  linalg::SubspaceTracker tracker(proc.subspace_options());
  std::size_t i = 0;
  for (auto _ : state) {
    auto spec = proc.music_spectrum(covs[i++ % covs.size()], &tracker);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_MusicSpectrumTracked)->Unit(benchmark::kMicrosecond);

// The same stage with a full eigendecomposition per spectrum (the
// tracker-less baseline this PR's speedup is measured against).
void BM_MusicSpectrumExact(benchmark::State& state) {
  auto& f = fixture();
  auto& ap = f.runner->system().ap(0);
  core::ApProcessor proc(&ap);
  std::vector<linalg::CMatrix> covs;
  for (std::size_t i = 0; i < ap.buffer().size(); ++i)
    covs.push_back(proc.row_covariance(ap.buffer().at(i)));
  std::size_t i = 0;
  for (auto _ : state) {
    auto spec = proc.music_spectrum(covs[i++ % covs.size()]);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_MusicSpectrumExact)->Unit(benchmark::kMicrosecond);

// Measures the steady-state server on `sys` and writes
// BENCH_fig21_latency.json: per-fix latency percentiles, spectra/sec,
// heatmap cells/sec, and the pool width + SIMD dispatch level that
// produced them.
void emit_telemetry(core::System& sys, int reps, const char* mode,
                    const char* out_path) {
  using clock = std::chrono::steady_clock;
  auto seconds = [](clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };

  // Warm up: first fix pays one-time costs (bearing tables).
  benchmark::DoNotOptimize(sys.locate(0, 0.1));

  std::vector<double> fix_ms;
  fix_ms.reserve(std::size_t(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock::now();
    auto fix = sys.locate(0, 0.1);
    benchmark::DoNotOptimize(fix);
    fix_ms.push_back(seconds(clock::now() - t0) * 1e3);
  }
  std::sort(fix_ms.begin(), fix_ms.end());
  const double median = fix_ms[fix_ms.size() / 2];
  const double p95 = fix_ms[std::min(fix_ms.size() - 1,
                                     std::size_t(0.95 * double(fix_ms.size())))];

  const auto ts0 = clock::now();
  std::size_t spectra_count = 0;
  for (int i = 0; i < reps; ++i) {
    auto spectra = sys.server().client_spectra(0, 0.1);
    spectra_count += spectra.size();
    benchmark::DoNotOptimize(spectra);
  }
  const double fused_spectra_per_sec =
      double(spectra_count) / seconds(clock::now() - ts0);

  // Headline spectra/sec: the covariance -> MUSIC-spectrum stage, the
  // per-frame cost the subspace tracker kills. The stream cycles this
  // client's captured frames (realistic covariance jitter between
  // consecutive updates), exactly as a session tracker sees it in the
  // service (BM_MusicSpectrumExact is the full-Jacobi baseline the
  // speedup is measured against). The fused metric
  // above stays as fused_spectra_per_sec — it also pays blur, symmetry
  // removal, and suppression, so it dilutes the eigendecomposition
  // term this number exists to watch.
  auto& ap0 = sys.ap(0);
  core::ApProcessor proc(&ap0);
  std::vector<linalg::CMatrix> covs;
  for (std::size_t i = 0; i < ap0.buffer().size(); ++i)
    covs.push_back(proc.row_covariance(ap0.buffer().at(i)));
  linalg::SubspaceCounters evd;
  linalg::SubspaceTracker tracker(proc.subspace_options(), &evd);
  benchmark::DoNotOptimize(proc.music_spectrum(covs[0], &tracker));
  const int spectrum_reps = reps * 200;  // stage is ~100x cheaper than a fix
  const auto ms0 = clock::now();
  for (int i = 0; i < spectrum_reps; ++i) {
    auto spec =
        proc.music_spectrum(covs[std::size_t(i) % covs.size()], &tracker);
    benchmark::DoNotOptimize(spec);
  }
  const double spectra_per_sec =
      double(spectrum_reps) / seconds(clock::now() - ms0);

  const auto th0 = clock::now();
  std::size_t cells = 0;
  for (int i = 0; i < reps; ++i) {
    auto map = sys.heatmap(0, 0.1);
    if (map) cells += map->cells.size();
    benchmark::DoNotOptimize(map);
  }
  const double cells_per_sec = double(cells) / seconds(clock::now() - th0);

  // The synthesis sweep, coarse-to-fine (locate) vs the dense float
  // sweep (locate_dense): same spectra, byte-identical fixes,
  // different sweep cost.
  const auto& server = sys.server();
  const auto& loc = server.localizer();
  const auto spectra = server.client_spectra(0, 0.1);
  auto locate_ms = [&](bool quant) {
    auto once = [&] {
      return quant ? loc.locate(spectra) : loc.locate_dense(spectra);
    };
    benchmark::DoNotOptimize(once());
    const auto t0 = clock::now();
    const int n = reps * 4;
    for (int i = 0; i < n; ++i) benchmark::DoNotOptimize(once());
    return seconds(clock::now() - t0) * 1e3 / double(n);
  };
  const double synthesis_float_ms = locate_ms(false);
  const double synthesis_quant_ms = locate_ms(true);

  bench::write_bench_json(
      out_path != nullptr ? out_path : "BENCH_fig21_latency.json",
      std::string("fig21_latency_") + mode,
      {{"median_fix_latency_ms", median},
       {"p95_fix_latency_ms", p95},
       {"spectra_per_sec", spectra_per_sec},
       {"fused_spectra_per_sec", fused_spectra_per_sec},
       {"evd_full", double(evd.evd_full.load())},
       {"evd_tracked", double(evd.evd_tracked.load())},
       {"evd_reseed", double(evd.evd_reseed.load())},
       {"heatmap_cells_per_sec", cells_per_sec},
       {"synthesis_float_ms", synthesis_float_ms},
       {"synthesis_quant_ms", synthesis_quant_ms},
       {"quant_sweep_speedup",
        synthesis_quant_ms > 0.0 ? synthesis_float_ms / synthesis_quant_ms
                                 : 0.0},
       {"quant_pruned", double(server.localizer().quant_pruned())},
       {"quant_refined", double(server.localizer().quant_refined())},
       {"quant_scored", double(server.localizer().quant_scored())},
       {"steering_table_bytes", double(server.steering_table_bytes())},
       {"threads", double(core::ThreadPool::shared().size())},
       {"num_aps", double(sys.num_aps())}},
      {{"simd_level", core::simd::name(core::simd::active())},
       {"evd_mode", tracker.exact_only() ? "exact" : "tracked"}});
  std::printf(
      "per-fix Tp: median %.2f ms, p95 %.2f ms | %.0f music spectra/s "
      "(%s evd: %llu full / %llu tracked / %llu reseed) | %.0f fused "
      "spectra/s | %.3g heatmap cells/s | pool width %zu | simd %s\n",
      median, p95, spectra_per_sec,
      tracker.exact_only() ? "exact" : "tracked",
      (unsigned long long)evd.evd_full.load(),
      (unsigned long long)evd.evd_tracked.load(),
      (unsigned long long)evd.evd_reseed.load(), fused_spectra_per_sec,
      cells_per_sec, core::ThreadPool::shared().size(),
      core::simd::name(core::simd::active()));
  std::printf(
      "synthesis sweep: float %.3f ms, quant %.3f ms (%.2fx) | pruned %llu / "
      "refined %llu / scored %llu cells | steering tables %zu B\n",
      synthesis_float_ms, synthesis_quant_ms,
      synthesis_quant_ms > 0.0 ? synthesis_float_ms / synthesis_quant_ms : 0.0,
      (unsigned long long)server.localizer().quant_pruned(),
      (unsigned long long)server.localizer().quant_refined(),
      (unsigned long long)server.localizer().quant_scored(),
      server.steering_table_bytes());
}

// Tiny scenario for the bench_smoke ctest: three APs in a small room,
// coarse grid. Fast enough for tier-1 while still driving the pooled
// per-AP fan-out, the projector kernel, and the JSON writer.
int run_smoke(const char* out_path) {
  bench::banner("Figure 21 (smoke)", "pool + kernel sanity on a tiny scenario");
  geom::Floorplan plan({{0, 0}, {12, 8}});
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;
  core::System sys(&plan, cfg);
  sys.add_ap({1, 1}, deg2rad(45.0));
  sys.add_ap({11, 1}, deg2rad(135.0));
  sys.add_ap({6, 7.5}, deg2rad(-90.0));
  for (std::size_t f = 0; f < 3; ++f)
    sys.transmit(0, {8.0, 4.0}, double(f) * 0.03);

  emit_telemetry(sys, 5, "smoke", out_path);
  const auto fix = sys.locate(0, 0.1);
  if (!fix) {
    std::printf("SMOKE FAIL: no fix produced\n");
    return 1;
  }
  const double err = geom::distance(fix->position, {8.0, 4.0});
  std::printf("smoke fix error: %.0f cm\n", err * 100.0);
  if (err > 2.0) {
    std::printf("SMOKE FAIL: error above 2 m\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our flags before benchmark::Initialize sees the rest.
  bool smoke = false;
  const char* out_path = nullptr;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else
      argv[keep++] = argv[i];
  }
  argc = keep;
  argv[argc] = nullptr;
  if (smoke) return run_smoke(out_path);

  bench::banner("Figure 21 / 4.4", "end-to-end latency budget");
  bench::paper_note(
      "Td=16us, Tt=2.56ms, Tl~30ms bus, Tp~100ms (Matlab) => ~100ms "
      "total excluding bus; processing dominates");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Assemble the latency report with a directly measured Tp.
  auto& f = fixture();
  const auto spectra = f.runner->system().server().client_spectra(0, 0.1);
  benchmark::DoNotOptimize(f.runner->system().locate(0, 0.1));  // warm caches
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kReps = 5;
  for (int i = 0; i < kReps; ++i) {
    auto fix = f.runner->system().locate(0, 0.1);
    benchmark::DoNotOptimize(fix);
  }
  const double tp =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() /
      kReps;

  core::LatencyModel model;
  const auto report = core::make_latency_report(model, tp);
  std::printf("\n%s\n", report.to_string().c_str());
  // The paper's Matlab backend, approximated as five times this Tp.
  const auto matlab = core::make_latency_report(model, 5.0 * tp);
  std::printf(
      "~Matlab-speed backend (x5 Tp): Td + Tt + Tl + 5*Tp = %.2f ms "
      "(%.2f ms excluding bus)\n",
      matlab.total_s() * 1e3, matlab.total_excl_bus_s() * 1e3);
  std::printf(
      "frame airtime overlap: 1500B @54Mb/s = %.0f us, @1Mb/s = %.1f ms "
      "(paper: 222 us .. 12 ms)\n",
      model.frame_airtime_s(1500, 54e6) * 1e6,
      model.frame_airtime_s(1500, 1e6) * 1e3);
  std::printf(
      "(C++ pipeline Tp is far below the paper's 100 ms Matlab figure; "
      "the hardware terms Td/Tt/Tl match the paper by construction)\n");

  emit_telemetry(f.runner->system(), 20, "office6ap", out_path);
  return 0;
}
