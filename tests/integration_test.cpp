// End-to-end integration tests over the office testbed: the full
// pipeline from channel through MUSIC to fused location, mostly on a
// subset of clients; PaperAccuracyAtSixAps runs all 41 (the 3-5 AP
// sweeps live in bench/fig15_arraytrack_cdf).
#include <gtest/gtest.h>

#include <string>

#include "core/sic.h"
#include "dsp/preamble.h"
#include "testbed/metrics.h"
#include "testbed/office.h"
#include "testbed/runner.h"

namespace arraytrack {
namespace {

using geom::Vec2;

testbed::RunnerConfig fast_runner() {
  testbed::RunnerConfig cfg;
  cfg.system.server.localizer.grid_step_m = 0.25;
  return cfg;
}

TEST(IntegrationTest, SixApsLocalizeSampledClients) {
  const auto tb = testbed::OfficeTestbed::standard();
  testbed::ExperimentRunner runner(&tb, fast_runner());
  const auto obs = runner.observe_clients({0, 7, 14, 21, 28, 35, 40});
  ASSERT_EQ(obs.size(), 7u);
  const auto errors =
      runner.localization_errors(obs, {0, 1, 2, 3, 4, 5});
  ASSERT_EQ(errors.size(), 7u);
  testbed::ErrorStats stats(errors);
  // The paper gets 23 cm median / 31 cm mean with six APs over 41
  // clients; on a 7-client sample with a coarse test grid we only
  // require sub-meter median — the benches check the tighter numbers.
  EXPECT_LT(stats.median(), 1.0) << stats.summary("6 APs", "m");
}

// Pins the reproduction's accuracy, not only a sub-meter sanity bound:
// the default Figure-15 configuration over all 41 clients at 6 APs
// measures median 30 cm, mean 52 cm, p90 131 cm (paper: 23 / 31 / 80
// cm). Each must stay within 10% of that. The 6-AP figures are the
// same at every SIMD level; the 3-5 AP tails are not pinned because
// their p90 moves between levels.
TEST(IntegrationTest, PaperAccuracyAtSixAps) {
  const auto tb = testbed::OfficeTestbed::standard();
  testbed::ExperimentRunner runner(&tb);
  const auto obs = runner.observe_all_clients();
  ASSERT_EQ(obs.size(), 41u);
  const testbed::ErrorStats stats(
      runner.localization_errors(obs, {0, 1, 2, 3, 4, 5}));
  const std::string summary = stats.summary("6 APs", "m");
  EXPECT_NEAR(stats.median(), 0.30, 0.030) << summary;
  EXPECT_NEAR(stats.mean(), 0.52, 0.052) << summary;
  EXPECT_NEAR(stats.percentile(90.0), 1.31, 0.131) << summary;
}

TEST(IntegrationTest, MoreApsNoWorseThanThree) {
  const auto tb = testbed::OfficeTestbed::standard();
  testbed::ExperimentRunner runner(&tb, fast_runner());
  const auto obs = runner.observe_clients({3, 11, 19, 27, 33});
  testbed::ErrorStats three(runner.localization_errors(obs, {0, 2, 4}));
  testbed::ErrorStats six(
      runner.localization_errors(obs, {0, 1, 2, 3, 4, 5}));
  EXPECT_LE(six.median(), three.median() + 0.5)
      << "3 APs: " << three.summary("", "m")
      << " 6 APs: " << six.summary("", "m");
}

TEST(IntegrationTest, ObservationsCoverAllAps) {
  const auto tb = testbed::OfficeTestbed::standard();
  testbed::ExperimentRunner runner(&tb, fast_runner());
  const auto obs = runner.observe_clients({20});
  ASSERT_EQ(obs.size(), 1u);
  // Every AP heard the frames (power never below the noise floor in
  // this testbed at default tx power).
  EXPECT_EQ(obs[0].per_ap.size(), 6u);
}

TEST(IntegrationTest, WaveformCollisionSicEndToEnd) {
  // Two clients collide; the AP detects both preambles, and SIC cleans
  // the second spectrum (paper 4.3.5) so each client's strongest
  // bearing matches its true direction.
  const auto tb = testbed::OfficeTestbed::standard();
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;
  core::System sys(&tb.plan, cfg);
  sys.add_ap(tb.ap_sites[2].position, tb.ap_sites[2].orientation_rad);
  auto& ap = sys.ap(0);

  const Vec2 c1 = tb.clients[5];
  const Vec2 c2 = tb.clients[30];

  dsp::PreambleGenerator gen(2);
  const auto wf1 = gen.frame(4000, 1);
  const auto wf2 = gen.frame(4000, 2);
  phy::Transmission t1, t2;
  t1.waveform = &wf1;
  t1.client_pos = c1;
  t1.start_sample = 0;
  t1.client_id = 1;
  t2.waveform = &wf2;
  t2.client_pos = c2;
  t2.start_sample = gen.preamble().size() + 800;  // preambles disjoint
  t2.client_id = 2;

  const auto captures = ap.receive({t1, t2}, 0.0);
  ASSERT_EQ(captures.size(), 2u);

  // The second capture is a two-transmitter mixture: a per-capture
  // side decision is unreliable, so process mirrored and compare
  // against bearing-or-mirror (multi-AP synthesis resolves the side).
  core::PipelineOptions po;
  po.symmetry_removal = false;
  core::ApProcessor proc(&ap, po);
  auto spec1 = proc.process(captures[0]);
  auto spec2_raw = proc.process(captures[1]);
  const auto spec2 = core::sic_cancel(spec1, spec2_raw);

  const double truth1 = wrap_2pi(ap.array().bearing_to(c1));
  const double truth2 = wrap_2pi(ap.array().bearing_to(c2));
  auto mirror_err = [](const aoa::AoaSpectrum& s, double truth) {
    return rad2deg(
        std::min(aoa::bearing_distance(s.dominant_bearing(), truth),
                 aoa::bearing_distance(s.dominant_bearing(),
                                       wrap_2pi(-truth))));
  };
  // The second spectrum carries residual body interference even after
  // SIC, so its peak can sit several degrees off; 12 degrees still
  // identifies the transmitter's direction unambiguously.
  EXPECT_LT(mirror_err(spec1, truth1), 8.0);
  EXPECT_LT(mirror_err(spec2, truth2), 12.0);
}

TEST(IntegrationTest, PillarBlockedClientStillLocalized) {
  // Client 40 sits behind a pillar from AP 3's view; multi-AP fusion
  // still pins it down (paper section 6, scenario S2).
  const auto tb = testbed::OfficeTestbed::standard();
  testbed::ExperimentRunner runner(&tb, fast_runner());
  const auto obs = runner.observe_clients({40});
  const auto errors = runner.localization_errors(obs, {0, 1, 2, 3, 4, 5});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_LT(errors[0], 1.5);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const auto tb = testbed::OfficeTestbed::standard();
  auto run_once = [&]() {
    testbed::ExperimentRunner runner(&tb, fast_runner());
    const auto obs = runner.observe_clients({10});
    return runner.localization_errors(obs, {0, 1, 2, 3, 4, 5})[0];
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace arraytrack
