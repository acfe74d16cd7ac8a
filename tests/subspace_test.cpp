// Tests for per-client subspace tracking (linalg/subspace.h) and its
// integration through the MUSIC estimator and the location service.
//
// The load-bearing contracts: (a) with the exact override (force_exact)
// the tracker path is byte-identical to the tracker-less path at every
// SIMD level, and tracked service fixes are byte-identical across
// worker counts and batch widths; (b) the tracked recursion's spectra stay within a
// pinned tolerance of the exact ones on a drifting stream; (c) the
// drift monitor reseeds on signal-count changes and reset() drops all
// state. The service suites also run under the ThreadSanitizer tier of
// tools/check.sh, which makes per-session tracker mutation a race test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "aoa/music.h"
#include "array/geometry.h"
#include "array/placed_array.h"
#include "core/simd.h"
#include "linalg/subspace.h"
#include "service/service.h"
#include "service/stats.h"

namespace arraytrack {
namespace {

using core::simd::ForcedLevel;
using core::simd::Level;

std::vector<Level> testable_levels() {
  std::vector<Level> out;
  for (Level lvl : {Level::kScalar, Level::kAvx2})
    if (core::simd::clamp_to_hardware(lvl) == lvl) out.push_back(lvl);
  return out;
}

// ---------------------------------------------------------------------
// Shared D-selection rule
// ---------------------------------------------------------------------

TEST(SubspaceSignalCountTest, ThresholdRuleMatchesPaper) {
  // Ascending eigenvalues; threshold 0.1 of the largest (10.0).
  const std::vector<double> eig{0.01, 0.5, 2.0, 10.0};
  EXPECT_EQ(linalg::signal_count(eig, 0.1), 2u);   // 2.0 and 10.0
  EXPECT_EQ(linalg::signal_count(eig, 0.04), 3u);  // 0.5 joins
  // Everything qualifies, but one noise direction must remain.
  EXPECT_EQ(linalg::signal_count(eig, 1e-4), 3u);
  // Nothing but the largest qualifies; at least one signal remains.
  EXPECT_EQ(linalg::signal_count(eig, 2.0), 1u);
}

TEST(SubspaceSignalCountTest, FixedOverrideAndDegenerateSizes) {
  const std::vector<double> eig{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(linalg::signal_count(eig, 0.06, 2), 2u);
  EXPECT_EQ(linalg::signal_count(eig, 0.06, 9), 3u);  // clamped to n - 1
  EXPECT_EQ(linalg::signal_count({5.0}, 0.06), 1u);   // single entry
}

// ---------------------------------------------------------------------
// Tracker against the MUSIC estimator
// ---------------------------------------------------------------------

constexpr double kLambda = 0.1226;

array::PlacedArray ula8() {
  return array::PlacedArray(
      array::ArrayGeometry::uniform_linear(8, kLambda / 2), {0, 0}, 0.0);
}

std::vector<std::size_t> first_n(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// Deterministic covariance stream of slowly drifting sources with a
/// noise floor and small Hermitian sample jitter — the steady-state
/// regime the tracker is built for.
class DriftingScene {
 public:
  DriftingScene(const array::PlacedArray* pa, std::vector<double> bearings,
                std::vector<double> powers, double drift_rad, double jitter,
                unsigned seed = 99)
      : pa_(pa), bearings_(std::move(bearings)), powers_(std::move(powers)),
        drift_(drift_rad), jitter_(jitter), rng_(seed) {}

  linalg::CMatrix next() {
    const std::size_t m = pa_->size();
    linalg::CMatrix r(m, m);
    for (std::size_t d = 0; d < bearings_.size(); ++d) {
      bearings_[d] += (d % 2 == 0 ? drift_ : -drift_);
      const auto a = pa_->steering(bearings_[d], kLambda);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j)
          r(i, j) += powers_[d] * a[i] * std::conj(a[j]);
    }
    std::normal_distribution<double> g(0.0, jitter_);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) {
        const cplx e{g(rng_), g(rng_)};
        r(i, j) += e;
        r(j, i) += std::conj(e);
      }
      r(i, i) += 0.05 + std::abs(g(rng_));
    }
    return r;
  }

 private:
  const array::PlacedArray* pa_;
  std::vector<double> bearings_, powers_;
  double drift_, jitter_;
  std::mt19937_64 rng_;
};

TEST(SubspaceTrackerTest, ForceExactBitwiseMatchesTrackerless) {
  const auto pa = ula8();
  const aoa::MusicEstimator music(&pa, first_n(8), kLambda);

  auto opt = music.subspace_options();
  opt.force_exact = true;
  for (Level lvl : testable_levels()) {
    ForcedLevel guard(lvl);
    linalg::SubspaceTracker tracker(opt);
    EXPECT_TRUE(tracker.exact_only());

    DriftingScene scene(&pa, {deg2rad(70.0), deg2rad(115.0)}, {4.0, 1.5},
                        2e-3, 1e-3);
    for (int frame = 0; frame < 40; ++frame) {
      const auto r = scene.next();
      const auto tracked = music.spectrum_from_covariance(r, &tracker);
      const auto exact = music.spectrum_from_covariance(r);
      ASSERT_EQ(tracked.bins(), exact.bins());
      for (std::size_t b = 0; b < exact.bins(); ++b)
        ASSERT_EQ(tracked[b], exact[b])
            << core::simd::name(lvl) << " frame " << frame << " bin " << b;
    }
    EXPECT_EQ(tracker.full_evds(), 40u);
    EXPECT_EQ(tracker.tracked_updates(), 0u);
    EXPECT_TRUE(tracker.basis().exact);
  }
}

TEST(SubspaceTrackerTest, TrackedSpectraWithinPinnedTolerance) {
  const auto pa = ula8();
  const aoa::MusicEstimator music(&pa, first_n(8), kLambda);
  linalg::SubspaceTracker tracker(music.subspace_options());

  DriftingScene scene(&pa, {deg2rad(70.0), deg2rad(115.0)}, {4.0, 1.5},
                      1e-3, 1e-3);
  std::vector<double> errors;
  const int frames = 300;
  for (int frame = 0; frame < frames; ++frame) {
    const auto r = scene.next();
    auto tracked = music.spectrum_from_covariance(r, &tracker);
    auto exact = music.spectrum_from_covariance(r);
    // Normalized spectra: MUSIC peak heights are 1/residual and swing
    // wildly with tiny subspace perturbations; the *shape* (relative
    // power versus bearing) is what localization consumes.
    tracked.normalize();
    exact.normalize();
    double err = 0.0;
    for (std::size_t b = 0; b < exact.bins(); ++b)
      err = std::max(err, std::abs(tracked[b] - exact[b]));
    errors.push_back(err);
    // The tracked spectrum's strongest bearing must coincide with one
    // of the exact spectrum's peaks. (Not necessarily the *strongest*
    // exact peak: MUSIC peak heights are reciprocal projection
    // residuals, and two comparable peaks can swap rank under a tiny
    // subspace perturbation while both bearings stay put.)
    const double dom = tracked.dominant_bearing();
    double nearest = kTwoPi;
    for (const auto& pk : exact.find_peaks(0.08))
      nearest = std::min(nearest,
                         std::abs(wrap_pi(pk.bearing_rad - dom)));
    EXPECT_LT(nearest, 1.5 * exact.bin_width_rad()) << "frame " << frame;
  }
  std::nth_element(errors.begin(), errors.begin() + frames / 2, errors.end());
  const double median = errors[std::size_t(frames) / 2];
  // Pinned tolerance on the median per-frame max bin deviation of the
  // normalized spectra. 0.05 fails if the recursion decouples from the
  // stream (errors jump to O(1)) while riding out one-step lag.
  EXPECT_LT(median, 0.05);
  // The point of the tracker: most updates skip the decomposition.
  EXPECT_GT(double(tracker.tracked_updates()) / double(tracker.updates()),
            0.5);
}

TEST(SubspaceTrackerTest, ReseedsWhenSignalCountChanges) {
  const auto pa = ula8();
  const aoa::MusicEstimator music(&pa, first_n(8), kLambda);
  linalg::SubspaceTracker tracker(music.subspace_options());

  // Phase 1: a single strong source, long enough to settle.
  DriftingScene one(&pa, {deg2rad(80.0)}, {4.0}, 5e-4, 1e-3, 7);
  for (int i = 0; i < 30; ++i) music.spectrum_from_covariance(one.next(),
                                                              &tracker);
  const std::size_t d_before = tracker.basis().num_signals;
  const std::uint64_t reseeds_before = tracker.reseeds();

  // Phase 2: a second source of comparable power appears.
  DriftingScene two(&pa, {deg2rad(80.0), deg2rad(130.0)}, {4.0, 3.0},
                    5e-4, 1e-3, 8);
  for (int i = 0; i < 10; ++i) music.spectrum_from_covariance(two.next(),
                                                              &tracker);
  EXPECT_GT(tracker.basis().num_signals, d_before);
  EXPECT_GT(tracker.reseeds(), reseeds_before)
      << "signal-count change must force a full decomposition";
}

TEST(SubspaceTrackerTest, ResetDropsStateAndCountersAggregate) {
  const auto pa = ula8();
  linalg::SubspaceCounters shared;
  linalg::SubspaceTracker a({}, &shared);
  linalg::SubspaceTracker b({}, &shared);

  DriftingScene scene(&pa, {deg2rad(95.0)}, {3.0}, 1e-3, 1e-3);
  for (int i = 0; i < 12; ++i) {
    const auto r = scene.next();
    a.update(r);
    b.update(r);
  }
  ASSERT_GT(a.tracked_updates(), 0u);

  a.reset();
  const auto& basis = a.update(scene.next());
  EXPECT_TRUE(basis.exact) << "first update after reset() must reseed";

  // Per-tracker tallies are exhaustive and the shared counters are
  // exactly their sum.
  EXPECT_EQ(a.updates(), a.full_evds() + a.tracked_updates());
  EXPECT_EQ(shared.evd_full.load(), a.full_evds() + b.full_evds());
  EXPECT_EQ(shared.evd_tracked.load(),
            a.tracked_updates() + b.tracked_updates());
  EXPECT_EQ(shared.evd_reseed.load(), a.reseeds() + b.reseeds());
}

// ---------------------------------------------------------------------
// Adaptive reseed cadence
// ---------------------------------------------------------------------

/// Rank-1 source at `bearing` over a fixed noise floor.
linalg::CMatrix rank1_cov(const array::PlacedArray& pa, double bearing) {
  const std::size_t m = pa.size();
  linalg::CMatrix r(m, m);
  const auto a = pa.steering(bearing, kLambda);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) r(i, j) = 3.0 * a[i] * std::conj(a[j]);
  for (std::size_t i = 0; i < m; ++i) r(i, i) += 0.05;
  return r;
}

TEST(SubspaceAdaptiveReseedTest, RisingResidualShrinksPeriod) {
  const auto pa = ula8();
  linalg::SubspaceOptions opt;  // adaptive_reseed on, initial period 64
  linalg::SubspaceTracker trk(opt);
  ASSERT_EQ(trk.reseed_period_current(), opt.reseed_period);

  // Accelerating rotation: each update the source moves a little
  // farther than the last, so the tracked residual climbs within every
  // refresh window until the drift monitor (or a rising-trend timer
  // reseed) fires. The cadence must tighten, not stretch.
  double bearing = deg2rad(80.0);
  double step = 0.0;
  for (int i = 0; i < 400; ++i) {
    step += 2e-4;
    bearing += step;
    trk.update(rank1_cov(pa, bearing));
  }
  EXPECT_LT(trk.reseed_period_current(), opt.reseed_period);
  EXPECT_GT(trk.reseeds(), 0u);
}

TEST(SubspaceAdaptiveReseedTest, FlatResidualStretchesPeriod) {
  const auto pa = ula8();
  linalg::SubspaceOptions opt;
  linalg::SubspaceTracker trk(opt);

  // A static scene: residuals sit at ~0, every reseed is the timer
  // firing for nothing, and the cadence must stretch toward the cap.
  const auto r = rank1_cov(pa, deg2rad(80.0));
  for (int i = 0; i < 400; ++i) trk.update(r);
  EXPECT_GT(trk.reseed_period_current(), opt.reseed_period);
  EXPECT_LE(trk.reseed_period_current(), opt.reseed_period_max);
}

TEST(SubspaceAdaptiveReseedTest, FixedModeKeepsPeriodAndReset) {
  const auto pa = ula8();
  linalg::SubspaceOptions opt;
  opt.adaptive_reseed = false;
  linalg::SubspaceTracker fixed(opt);
  const auto r = rank1_cov(pa, deg2rad(80.0));
  for (int i = 0; i < 200; ++i) fixed.update(r);
  EXPECT_EQ(fixed.reseed_period_current(), opt.reseed_period);

  // reset() restores the initial (clamped) cadence in adaptive mode.
  linalg::SubspaceTracker adapt;
  for (int i = 0; i < 400; ++i) adapt.update(r);
  ASSERT_NE(adapt.reseed_period_current(), adapt.options().reseed_period);
  adapt.reset();
  EXPECT_EQ(adapt.reseed_period_current(), adapt.options().reseed_period);
}

// ---------------------------------------------------------------------
// Service layer
// ---------------------------------------------------------------------

geom::Floorplan make_plan() {
  geom::Floorplan plan({{0, 0}, {18, 10}});
  plan.add_wall({0, 0}, {18, 0}, geom::Material::kBrick);
  plan.add_wall({18, 0}, {18, 10}, geom::Material::kBrick);
  plan.add_wall({18, 10}, {0, 10}, geom::Material::kBrick);
  plan.add_wall({0, 10}, {0, 0}, geom::Material::kBrick);
  return plan;
}

std::unique_ptr<core::System> make_system(const geom::Floorplan* plan) {
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;  // keep tests quick
  auto sys = std::make_unique<core::System>(plan, cfg);
  sys->add_ap({1, 1}, deg2rad(45.0));
  sys->add_ap({17, 1}, deg2rad(135.0));
  sys->add_ap({9, 9.5}, deg2rad(-90.0));
  return sys;
}

std::vector<core::FrameEvent> interleaved_schedule(int clients, int frames,
                                                   double gap_s) {
  static const std::vector<geom::Vec2> sites = {
      {12.0, 6.0}, {5.0, 3.0}, {9.0, 7.0}, {14.5, 2.5}};
  std::vector<core::FrameEvent> out;
  for (int i = 0; i < frames; ++i)
    for (int c = 0; c < clients; ++c)
      out.push_back({0.1 + gap_s * i + 0.011 * c, c, sites[std::size_t(c)]});
  return out;
}

service::ServiceReport run_service(const geom::Floorplan* plan,
                                   const std::vector<core::FrameEvent>& sched,
                                   std::size_t workers, std::size_t batch_max,
                                   bool subspace_tracking,
                                   std::string* stats_json = nullptr) {
  auto sys = make_system(plan);
  service::ServiceOptions opt;
  opt.workers = workers;
  opt.batch_max = batch_max;
  opt.subspace_tracking = subspace_tracking;
  opt.virtual_clock = true;
  opt.virtual_cost_s = 0.02;
  opt.latency_slo_s = 0.5;
  service::LocationService svc(sys.get(), opt);
  auto rep = svc.run(sched);
  if (stats_json != nullptr) *stats_json = svc.stats_json();
  return rep;
}

void expect_same_fixes(const service::ServiceReport& a,
                       const service::ServiceReport& b, const char* what) {
  ASSERT_EQ(a.fixes.size(), b.fixes.size()) << what;
  for (std::size_t i = 0; i < a.fixes.size(); ++i) {
    const auto& x = a.fixes[i];
    const auto& y = b.fixes[i];
    EXPECT_EQ(x.client_id, y.client_id) << what << " fix " << i;
    EXPECT_EQ(x.seq, y.seq) << what << " fix " << i;
    EXPECT_EQ(x.frame_time_s, y.frame_time_s) << what << " fix " << i;
    // Byte-identical positions, not a tolerance: the tracked stream is
    // a function of per-client frame order alone, which the service
    // preserves at any worker count or drain width.
    EXPECT_EQ(x.position.x, y.position.x) << what << " fix " << i;
    EXPECT_EQ(x.position.y, y.position.y) << what << " fix " << i;
    EXPECT_EQ(x.smoothed.x, y.smoothed.x) << what << " fix " << i;
    EXPECT_EQ(x.smoothed.y, y.smoothed.y) << what << " fix " << i;
    EXPECT_EQ(x.likelihood, y.likelihood) << what << " fix " << i;
  }
}

TEST(SubspaceServiceTest, TrackedFixesByteIdenticalAcrossWorkersAndBatches) {
  const auto plan = make_plan();
  const auto schedule = interleaved_schedule(4, 6, 0.2);

  std::string base_stats;
  const auto base =
      run_service(&plan, schedule, 1, 1, /*subspace_tracking=*/true,
                  &base_stats);
  ASSERT_GT(base.fixes.size(), 0u);
  // Tracking actually engaged: steady-state updates skipped the EVD,
  // and the stats snapshot reports the split.
  EXPECT_NE(base_stats.find("\"evd_tracked\""), std::string::npos);
  EXPECT_NE(base_stats.find("\"evd_full\""), std::string::npos);
  EXPECT_NE(base_stats.find("\"evd_reseed\""), std::string::npos);

  for (std::size_t workers : {2u, 8u}) {
    for (std::size_t batch_max : {1u, 8u}) {
      const auto other = run_service(&plan, schedule, workers, batch_max,
                                     /*subspace_tracking=*/true);
      expect_same_fixes(base, other,
                        (std::string("workers ") + std::to_string(workers) +
                         " batch " + std::to_string(batch_max))
                            .c_str());
    }
  }
}

TEST(SubspaceServiceTest, TrackedModeSkipsDecompositions) {
  const auto plan = make_plan();
  const auto schedule = interleaved_schedule(2, 12, 0.1);
  auto sys = make_system(&plan);
  service::ServiceOptions opt;
  opt.workers = 2;
  opt.virtual_clock = true;
  opt.virtual_cost_s = 0.02;
  opt.latency_slo_s = 1.0;
  service::LocationService svc(sys.get(), opt);  // tracking defaults on
  const auto rep = svc.run(schedule);
  ASSERT_GT(rep.fixes.size(), 4u);
  const auto& st = svc.stats();
  EXPECT_GT(st.subspace.evd_tracked.load(), 0u);
  EXPECT_GT(st.subspace.evd_full.load(), 0u);  // cold seeds at least
}

}  // namespace
}  // namespace arraytrack
