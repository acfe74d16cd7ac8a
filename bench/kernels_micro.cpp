// Per-kernel microbenchmark for the SIMD layer: projector matvec,
// Bartlett quadratic form, covariance accumulation, forward-backward
// averaging, the heatmap gather+lerp+product, the batched spectrum
// blur FIR, and the coarse score accumulation and block bounds of the
// position sweep, each timed at the scalar level and at the dispatched
// level,
// reporting ns/op and the effective memory bandwidth of the streams
// each kernel touches. It also times the spectrum tail at the shape
// the served traffic has: aoa::blur_rows on 1 and 3 rows of 720 bins
// (a job's frames at one AP), find_peaks on a testbed sharp spectrum,
// and suppress_multipath on a 3-spectrum group. Emits
// BENCH_kernels.json (path overridable with `--out`); `--smoke` runs a
// fast pass that also cross-checks scalar vs dispatched results
// (<= 1e-9 relative), pins the blur FIR and blur_rows bitwise against
// the portable convolution loop, checks find_peaks against a plain
// %-indexed scan and suppress_multipath bitwise across levels, checks
// score_accum and arc_max_accum exactly at both levels, and is
// registered as the kernels_smoke ctest.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "aoa/spectrum.h"
#include "bench_util.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "core/suppression.h"
#include "linalg/kernels.h"
#include "testbed/runner.h"

using namespace arraytrack;
using core::simd::ForcedLevel;
using core::simd::Level;
using linalg::CoarseLogTable;
using linalg::SplitPlanes;

namespace {

// Realistic hot-path shapes: the MUSIC half-sweep of an 8-antenna AP
// (361 bins x 7-element smoothed subarray, 3 signal vectors), the
// paper's 10-snapshot covariance, and the 6-AP office heatmap grid.
constexpr std::size_t kBins = 361;
constexpr std::size_t kM = 7;
constexpr std::size_t kNvec = 3;
constexpr std::size_t kCovM = 8;
constexpr std::size_t kCovN = 10;
constexpr std::size_t kCells = 320 * 140;
constexpr std::size_t kSpecBins = 720;
// The batched spectrum blur: kBatch contiguous rows, 33 taps
// (~ sigma 2 deg at 720 bins).
constexpr std::size_t kBatch = 8;
constexpr std::size_t kTaps = 33;
// Block bounds: one AP's arcs over the office grid's 20 x 9 blocks of
// 16 x 16 cells, ~27 bins wide like the testbed's, a few wrapping bin 0
// and one full circle.
constexpr std::size_t kBlocks = 180;

struct Timing {
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  double bytes = 0.0;  // streamed per op
  double speedup() const { return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0; }
  double simd_gbs() const { return simd_ns > 0.0 ? bytes / simd_ns : 0.0; }
  double scalar_gbs() const {
    return scalar_ns > 0.0 ? bytes / scalar_ns : 0.0;
  }
};

double time_ns_per_op(const std::function<void()>& op, std::size_t iters) {
  using clock = std::chrono::steady_clock;
  op();  // warm caches and the dispatch slot
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    const double ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
        double(iters);
    best = std::min(best, ns);
  }
  return best;
}

Timing time_levels(const std::function<void()>& op, std::size_t iters,
                   double bytes) {
  Timing t;
  t.bytes = bytes;
  {
    ForcedLevel g(Level::kScalar);
    t.scalar_ns = time_ns_per_op(op, iters);
  }
  t.simd_ns = time_ns_per_op(op, iters);  // ambient (dispatched) level
  return t;
}

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-300});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

struct Fixture {
  SplitPlanes table{kBins, kM};
  std::vector<double> ev_re, ev_im;
  SplitPlanes snaps{kCovN, kCovM};
  std::vector<cplx> herm;
  std::vector<cplx> cov_out;
  std::vector<cplx> fb_out;
  std::vector<double> power;
  std::vector<std::int32_t> bin0, bin1;
  std::vector<double> frac;
  std::vector<double> cells;
  std::vector<double> sweep_out;
  std::vector<double> fir_in;    // kBatch rows of kSpecBins + kTaps - 1
  std::vector<double> fir_taps;
  std::vector<double> fir_out;
  CoarseLogTable coarse;         // round-up log2 pair-max of `power`
  std::vector<std::int32_t> score;
  std::vector<std::int32_t> arc_lo, arc_len, bound;

  Fixture() {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (std::size_t k = 0; k < kM; ++k)
      for (std::size_t i = 0; i < kBins; ++i)
        table.set(k, i, cplx{u(rng), u(rng)});
    ev_re.resize(kNvec * kM);
    ev_im.resize(kNvec * kM);
    for (auto& v : ev_re) v = u(rng);
    for (auto& v : ev_im) v = u(rng);
    for (std::size_t k = 0; k < kCovM; ++k)
      for (std::size_t i = 0; i < kCovN; ++i)
        snaps.set(k, i, cplx{u(rng), u(rng)});
    herm.resize(kM * kM);
    for (std::size_t i = 0; i < kM; ++i) {
      herm[i * kM + i] = cplx{2.0 + u(rng), 0.0};
      for (std::size_t j = i + 1; j < kM; ++j) {
        herm[i * kM + j] = cplx{u(rng), u(rng)};
        herm[j * kM + i] = std::conj(herm[i * kM + j]);
      }
    }
    cov_out.resize(kCovM * kCovM);
    fb_out.resize(kM * kM);
    power.resize(kSpecBins);
    for (auto& v : power) v = 0.05 + std::abs(u(rng));
    bin0.resize(kCells);
    bin1.resize(kCells);
    frac.resize(kCells);
    std::uniform_int_distribution<std::int32_t> bins(0, kSpecBins - 1);
    for (std::size_t c = 0; c < kCells; ++c) {
      bin0[c] = bins(rng);
      bin1[c] = (bin0[c] + 1) % std::int32_t(kSpecBins);
      frac[c] = 0.5 * (u(rng) + 1.0);
    }
    cells.assign(kCells, 1.0);
    sweep_out.resize(kBins);
    fir_in.resize((kSpecBins + kTaps - 1) * kBatch);
    for (auto& v : fir_in) v = 0.05 + std::abs(u(rng));
    fir_taps.resize(kTaps);
    for (auto& v : fir_taps) v = 0.5 * (u(rng) + 1.0);
    fir_out.resize(kSpecBins * kBatch);
    coarse = linalg::coarse_log_table(power.data(), kSpecBins, 0.05);
    score.assign(kCells, 0);
    std::uniform_int_distribution<std::int32_t> width(10, 44);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      arc_lo.push_back(bins(rng));
      arc_len.push_back(width(rng));
    }
    arc_lo[0] = kSpecBins - 5;  // wraps bin 0
    arc_lo[1] = 0;              // the full circle
    arc_len[1] = kSpecBins - 1;
    arc_lo[2] = 300;            // the full circle from mid-table
    arc_len[2] = kSpecBins - 1;
    bound.assign(kBlocks, 0);
  }
};

/// The spectrum tail at the served traffic's shape: one client's three
/// frames at one office-testbed AP, as sharp spectra (process_sharp)
/// and as finished (blurred, normalized) spectra.
struct TailFixture {
  std::vector<aoa::AoaSpectrum> sharp;
  std::vector<aoa::AoaSpectrum> finished;

  TailFixture() {
    auto tb = testbed::OfficeTestbed::standard();
    testbed::ExperimentRunner runner(&tb, testbed::RunnerConfig{});
    for (std::size_t f = 0; f < 3; ++f)
      runner.system().transmit(0, tb.clients[12], double(f) * 0.03);
    const auto& ap = runner.system().ap(0);
    const core::ApProcessor proc(&ap);
    for (std::size_t f = 0; f < ap.buffer().size(); ++f)
      sharp.push_back(proc.process_sharp(ap.buffer().at(f)));
    finished = sharp;
    proc.finish_spectrum(finished);
  }
};

/// The bearing blur as the plain %-indexed circular convolution.
std::vector<double> naive_blur(const aoa::AoaSpectrum& in,
                               const std::vector<double>& taps) {
  const std::size_t n = in.bins(), half = taps.size() / 2;
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < taps.size(); ++j)
      out[i] += taps[j] * in[(i + n + j - half) % n];
  return out;
}

struct Report {
  const char* key;
  Timing t;
};

int run(bool smoke, const char* out_path) {
  bench::banner("Kernel microbench",
                "SIMD layer: scalar vs dispatched hot loops");
  Fixture f;
  const TailFixture tail;
  const std::size_t scale = smoke ? 1 : 8;

  const Timing projector = time_levels(
      [&] {
        linalg::kernels::projector_power(f.table, f.ev_re.data(),
                                         f.ev_im.data(), kNvec,
                                         f.sweep_out.data());
      },
      800 * scale, double((2 * kBins * kM + kBins) * sizeof(double)));

  const Timing bartlett = time_levels(
      [&] {
        linalg::kernels::bartlett_power(f.table, f.herm.data(),
                                        f.sweep_out.data());
      },
      400 * scale, double((2 * kBins * kM + kBins) * sizeof(double)));

  const Timing cov = time_levels(
      [&] { linalg::kernels::covariance(f.snaps, f.cov_out.data()); },
      4000 * scale,
      double((2 * kCovM * kCovN + 2 * kCovM * kCovM) * sizeof(double)));

  const Timing fb = time_levels(
      [&] { linalg::kernels::forward_backward(f.herm.data(), kM, f.fb_out.data()); },
      8000 * scale, double(4 * kM * kM * sizeof(double)));

  const Timing heatmap = time_levels(
      [&] {
        linalg::kernels::gather_lerp_product(f.power.data(), f.bin0.data(),
                                             f.bin1.data(), f.frac.data(),
                                             kCells, 0.05, f.cells.data());
        // Keep the running product finite across iterations.
        std::fill(f.cells.begin(), f.cells.end(), 1.0);
      },
      20 * scale,
      double(kCells * (2 * sizeof(std::int32_t) + 4 * sizeof(double))));

  const Timing fir_batch = time_levels(
      [&] {
        linalg::kernels::fir_batch(f.fir_in.data(), kBatch, kSpecBins,
                                   f.fir_taps.data(), kTaps,
                                   f.fir_out.data());
      },
      400 * scale,
      double(((kSpecBins + kTaps - 1) + kSpecBins) * kBatch *
             sizeof(double)));

  const Timing score_accum = time_levels(
      [&] {
        linalg::kernels::score_accum(f.coarse.pairmax.data(), f.bin0.data(),
                                     kCells, f.score.data());
        std::fill(f.score.begin(), f.score.end(), 0);
      },
      40 * scale, double(kCells * 3 * sizeof(std::int32_t)));

  const Timing arc_max = time_levels(
      [&] {
        std::fill(f.bound.begin(), f.bound.end(), 0);
        linalg::kernels::arc_max_accum(f.coarse.pairmax.data(), kSpecBins,
                                       f.arc_lo.data(), f.arc_len.data(),
                                       kBlocks, f.bound.data());
      },
      4000 * scale,
      double((kSpecBins + 3 * kBlocks) * sizeof(std::int32_t)));

  // The spectrum tail. blur_rows rewrites its rows in place, so each
  // op restores them from the sharp spectra first (a 720-double copy
  // per row, small next to the blur).
  const double sigma = deg2rad(2.0);
  std::vector<aoa::AoaSpectrum> blur1(tail.sharp.begin(),
                                      tail.sharp.begin() + 1);
  std::vector<aoa::AoaSpectrum> blur3 = tail.sharp;
  const Timing blur_rows_1 = time_levels(
      [&] {
        blur1[0] = tail.sharp[0];
        aoa::blur_rows(sigma, blur1);
      },
      2000 * scale, double(2 * kSpecBins * sizeof(double)));
  const Timing blur_rows_3 = time_levels(
      [&] {
        for (std::size_t r = 0; r < 3; ++r) blur3[r] = tail.sharp[r];
        aoa::blur_rows(sigma, blur3);
      },
      1000 * scale, double(3 * 2 * kSpecBins * sizeof(double)));
  std::size_t sink = 0;  // keeps the timed results observable
  const Timing find_peaks = time_levels(
      [&] { sink += tail.sharp[0].find_peaks(0.08).size(); },
      4000 * scale, double(kSpecBins * sizeof(double)));
  const Timing suppress = time_levels(
      [&] { sink += core::suppress_multipath(tail.finished).bins(); },
      1000 * scale, double(4 * kSpecBins * sizeof(double)));

  const Report reports[] = {{"projector", projector},
                            {"bartlett", bartlett},
                            {"covariance", cov},
                            {"forward_backward", fb},
                            {"heatmap", heatmap},
                            {"fir_batch", fir_batch},
                            {"score_accum", score_accum},
                            {"arc_max_accum", arc_max},
                            {"blur_rows_1x720", blur_rows_1},
                            {"blur_rows_3x720", blur_rows_3},
                            {"find_peaks", find_peaks},
                            {"suppress_3", suppress}};
  std::printf("dispatched level: %s (hardware max %s)\n",
              core::simd::name(core::simd::active()),
              core::simd::name(core::simd::hardware_level()));
  std::printf("tail fixture: %zu peaks in the sharp spectrum (sink %zu)\n\n",
              tail.sharp[0].find_peaks(0.08).size(), sink);
  std::printf("%-18s %12s %12s %9s %10s\n", "kernel", "scalar ns/op",
              "simd ns/op", "speedup", "simd GB/s");
  std::vector<std::pair<std::string, double>> fields;
  for (const auto& rep : reports) {
    std::printf("%-18s %12.1f %12.1f %8.2fx %10.2f\n", rep.key,
                rep.t.scalar_ns, rep.t.simd_ns, rep.t.speedup(),
                rep.t.simd_gbs());
    fields.push_back({std::string(rep.key) + "_scalar_ns", rep.t.scalar_ns});
    fields.push_back({std::string(rep.key) + "_simd_ns", rep.t.simd_ns});
    fields.push_back({std::string(rep.key) + "_speedup", rep.t.speedup()});
    fields.push_back({std::string(rep.key) + "_simd_gbs", rep.t.simd_gbs()});
  }
  const std::size_t float_bytes = 2 * kBins * kM * sizeof(double);
  fields.push_back({"steering_table_bytes", double(float_bytes)});
  bench::write_bench_json(
      out_path != nullptr ? out_path : "BENCH_kernels.json", "kernels_micro",
      fields,
      {{"simd_level", core::simd::name(core::simd::active())},
       {"hardware_level", core::simd::name(core::simd::hardware_level())}});

  if (!smoke) return 0;

  // Smoke validation: the dispatched level must agree with the scalar
  // reference to 1e-9 relative on every kernel output.
  int failures = 0;
  auto check = [&](const char* what, const std::function<void()>& op,
                   const std::vector<double>& (*snapshot)(Fixture&)) {
    ForcedLevel base(Level::kScalar);
    op();
    const std::vector<double> want = snapshot(f);
    if (core::simd::hardware_level() != Level::kAvx2) return;
    ForcedLevel g(Level::kAvx2);
    op();
    const double dev = max_rel_diff(snapshot(f), want);
    if (dev > 1e-9) {
      std::printf("SMOKE FAIL: %s at avx2 deviates %.3g\n", what, dev);
      ++failures;
    }
  };
  static std::vector<double> scratch;
  check(
      "projector",
      [&] {
        linalg::kernels::projector_power(f.table, f.ev_re.data(),
                                         f.ev_im.data(), kNvec,
                                         f.sweep_out.data());
      },
      +[](Fixture& fx) -> const std::vector<double>& { return fx.sweep_out; });
  check(
      "heatmap",
      [&] {
        std::fill(f.cells.begin(), f.cells.end(), 1.0);
        linalg::kernels::gather_lerp_product(f.power.data(), f.bin0.data(),
                                             f.bin1.data(), f.frac.data(),
                                             kCells, 0.05, f.cells.data());
      },
      +[](Fixture& fx) -> const std::vector<double>& { return fx.cells; });
  check(
      "covariance",
      [&] {
        linalg::kernels::covariance(f.snaps, f.cov_out.data());
        scratch.assign(reinterpret_cast<const double*>(f.cov_out.data()),
                       reinterpret_cast<const double*>(f.cov_out.data()) +
                           2 * f.cov_out.size());
      },
      +[](Fixture&) -> const std::vector<double>& { return scratch; });
  // The blur FIR carries a stronger contract than the 1e-9 checks
  // above: at both levels, each row must match the portable
  // convolution loop BITWISE — the service's determinism across batch
  // widths rests on this. blur_rows at the traffic's 1- and 3-row
  // shapes is held to the same contract against the %-indexed
  // circular convolution.
  const std::vector<double> taps = aoa::gaussian_taps(sigma, kSpecBins);
  for (Level lvl : {Level::kScalar, Level::kAvx2}) {
    if (core::simd::clamp_to_hardware(lvl) != lvl) continue;
    ForcedLevel g(lvl);
    linalg::kernels::fir_batch(f.fir_in.data(), kBatch, kSpecBins,
                               f.fir_taps.data(), kTaps, f.fir_out.data());
    const std::size_t nin = kSpecBins + kTaps - 1;
    for (std::size_t r = 0; r < kBatch; ++r)
      for (std::size_t i = 0; i < kSpecBins; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < kTaps; ++j)
          acc += f.fir_taps[j] * f.fir_in[r * nin + i + j];
        if (std::memcmp(&acc, &f.fir_out[r * kSpecBins + i], 8)) {
          std::printf("SMOKE FAIL: fir_batch row %zu at %s not bitwise\n", r,
                      core::simd::name(lvl));
          ++failures;
          i = kSpecBins;
        }
      }
    for (std::size_t nrows : {std::size_t(1), std::size_t(3)}) {
      std::vector<aoa::AoaSpectrum> rows(tail.sharp.begin(),
                                         tail.sharp.begin() + nrows);
      aoa::blur_rows(sigma, rows);
      for (std::size_t r = 0; r < nrows; ++r)
        if (rows[r].values() != naive_blur(tail.sharp[r], taps)) {
          std::printf("SMOKE FAIL: blur_rows %zux720 row %zu at %s not "
                      "bitwise\n",
                      nrows, r, core::simd::name(lvl));
          ++failures;
        }
    }
  }

  // find_peaks: the same list as a plain %-indexed scan of the sharp
  // spectrum's local maxima, strongest first.
  {
    const aoa::AoaSpectrum& s = tail.sharp[0];
    const std::size_t n = s.bins();
    double top = 0.0;
    for (std::size_t i = 0; i < n; ++i) top = std::max(top, s[i]);
    std::vector<std::pair<double, std::size_t>> want;
    for (std::size_t i = 0; i < n; ++i)
      if (s[i] > s[(i + n - 1) % n] && s[i] >= s[(i + 1) % n] &&
          s[i] >= 0.08 * top && s[i] > 0.0)
        want.push_back({s[i], i});
    std::sort(want.begin(), want.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    const auto got = s.find_peaks(0.08);
    bool same = !got.empty() && got.size() == want.size();
    for (std::size_t k = 0; same && k < got.size(); ++k)
      same = got[k].bin == want[k].second && got[k].power == want[k].first;
    if (!same) {
      std::printf("SMOKE FAIL: find_peaks disagrees with the plain scan\n");
      ++failures;
    }
  }

  // suppress_multipath: bitwise the same fused spectrum at every level
  // (it has no vector path; the check pins that nothing level-dependent
  // leaks into the tail).
  {
    std::vector<double> want;
    for (Level lvl : {Level::kScalar, Level::kAvx2}) {
      if (core::simd::clamp_to_hardware(lvl) != lvl) continue;
      ForcedLevel g(lvl);
      const auto got = core::suppress_multipath(tail.finished).values();
      if (want.empty())
        want = got;
      else if (got != want) {
        std::printf("SMOKE FAIL: suppress_multipath differs at %s\n",
                    core::simd::name(lvl));
        ++failures;
      }
    }
  }

  // Coarse score accumulation: exact int32 gather-adds, so both
  // levels must reproduce the table lookup exactly.
  for (Level lvl : {Level::kScalar, Level::kAvx2}) {
    if (core::simd::clamp_to_hardware(lvl) != lvl) continue;
    ForcedLevel g(lvl);
    std::vector<std::int32_t> got(kCells, 0);
    linalg::kernels::score_accum(f.coarse.pairmax.data(), f.bin0.data(),
                                 kCells, got.data());
    for (std::size_t c = 0; c < kCells; ++c)
      if (got[c] != f.coarse.pairmax[std::size_t(f.bin0[c])]) {
        std::printf("SMOKE FAIL: score_accum at %s wrong at cell %zu\n",
                    core::simd::name(lvl), c);
        ++failures;
        break;
      }
  }

  // Block bounds: exact int32 maxima, so both levels must reproduce
  // the plain scan over each arc's bins.
  for (Level lvl : {Level::kScalar, Level::kAvx2}) {
    if (core::simd::clamp_to_hardware(lvl) != lvl) continue;
    ForcedLevel g(lvl);
    std::vector<std::int32_t> got(kBlocks, 3);
    linalg::kernels::arc_max_accum(f.coarse.pairmax.data(), kSpecBins,
                                   f.arc_lo.data(), f.arc_len.data(), kBlocks,
                                   got.data());
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::int32_t want = f.coarse.pairmax[std::size_t(f.arc_lo[b])];
      for (std::int32_t i = 1; i <= f.arc_len[b]; ++i)
        want = std::max(want, f.coarse.pairmax[std::size_t(f.arc_lo[b] + i) %
                                               kSpecBins]);
      if (got[b] != want + 3) {
        std::printf("SMOKE FAIL: arc_max_accum at %s wrong at arc %zu\n",
                    core::simd::name(lvl), b);
        ++failures;
        break;
      }
    }
  }

  if (failures == 0) std::printf("smoke: all levels agree with scalar\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  return run(smoke, out_path);
}
