// Tests for the ArrayTrack server and the System facade.
#include <gtest/gtest.h>

#include "core/arraytrack.h"

namespace arraytrack::core {
namespace {

using geom::Vec2;

geom::Floorplan open_plan() {
  geom::Floorplan plan({{0, 0}, {20, 12}});
  plan.add_wall({0, 0}, {20, 0}, geom::Material::kBrick);
  plan.add_wall({20, 0}, {20, 12}, geom::Material::kBrick);
  plan.add_wall({20, 12}, {0, 12}, geom::Material::kBrick);
  plan.add_wall({0, 12}, {0, 0}, geom::Material::kBrick);
  return plan;
}

SystemConfig fast_config() {
  SystemConfig cfg;
  // Coarser grid keeps unit tests quick; benches use the 10 cm grid.
  cfg.server.localizer.grid_step_m = 0.25;
  return cfg;
}

TEST(SystemTest, AddApsAndCalibrate) {
  const auto plan = open_plan();
  System sys(&plan, fast_config());
  EXPECT_EQ(sys.add_ap({1, 1}, 0.0), 0);
  EXPECT_EQ(sys.add_ap({19, 1}, deg2rad(90.0)), 1);
  EXPECT_EQ(sys.num_aps(), 2u);
  EXPECT_TRUE(sys.ap(0).calibrated());
  EXPECT_TRUE(sys.ap(1).calibrated());
}

TEST(SystemTest, LocateNeedsFrames) {
  const auto plan = open_plan();
  System sys(&plan, fast_config());
  sys.add_ap({1, 1}, 0.0);
  EXPECT_FALSE(sys.locate(0, 0.0).has_value());
}

TEST(SystemTest, ThreeApLocalizationInOpenRoom) {
  const auto plan = open_plan();
  System sys(&plan, fast_config());
  sys.add_ap({1.0, 1.0}, deg2rad(45.0));
  sys.add_ap({19.0, 1.0}, deg2rad(135.0));
  sys.add_ap({10.0, 11.0}, deg2rad(-90.0));

  const Vec2 truth{12.0, 6.0};
  // Three frames with slight movement (enables multipath suppression).
  sys.transmit(7, truth, 0.00);
  sys.transmit(7, truth + Vec2{0.03, 0.02}, 0.03);
  sys.transmit(7, truth + Vec2{-0.02, 0.04}, 0.06);

  const auto fix = sys.locate(7, 0.07);
  ASSERT_TRUE(fix.has_value());
  EXPECT_LT(geom::distance(fix->position, truth), 0.5)
      << "got " << fix->position.to_string();
}

TEST(SystemTest, HeatmapModeNearTruth) {
  const auto plan = open_plan();
  System sys(&plan, fast_config());
  sys.add_ap({1.0, 1.0}, deg2rad(45.0));
  sys.add_ap({19.0, 1.0}, deg2rad(135.0));
  const Vec2 truth{9.0, 7.0};
  sys.transmit(0, truth, 0.0);
  const auto map = sys.heatmap(0, 0.01);
  ASSERT_TRUE(map.has_value());
  // Find the argmax cell.
  double best = -1.0;
  Vec2 best_pos;
  for (std::size_t iy = 0; iy < map->ny; ++iy)
    for (std::size_t ix = 0; ix < map->nx; ++ix)
      if (map->at(ix, iy) > best) {
        best = map->at(ix, iy);
        best_pos = map->cell_center(ix, iy);
      }
  EXPECT_LT(geom::distance(best_pos, truth), 1.0);
}

TEST(ServerTest, ClientSpectraOnlyFromApsThatHeard) {
  const auto plan = open_plan();
  System sys(&plan, fast_config());
  sys.add_ap({1, 1}, 0.0);
  sys.add_ap({19, 1}, deg2rad(180.0));
  sys.transmit(3, {10, 6}, 0.0);
  // Client 5 never transmitted.
  EXPECT_TRUE(sys.server().client_spectra(5, 0.01).empty());
  EXPECT_EQ(sys.server().client_spectra(3, 0.01).size(), 2u);
  // Frames older than the grouping window are not used.
  EXPECT_TRUE(sys.server().client_spectra(3, 10.0).empty());
}

TEST(ServerTest, SuppressionToggleChangesSpectra) {
  const auto plan = open_plan();
  SystemConfig with = fast_config();
  with.server.multipath_suppression = true;
  SystemConfig without = fast_config();
  without.server.multipath_suppression = false;

  const Vec2 truth{14.0, 4.0};
  auto run = [&](SystemConfig cfg) {
    System sys(&plan, cfg);
    sys.add_ap({1.0, 1.0}, deg2rad(45.0));
    sys.transmit(0, truth, 0.00);
    sys.transmit(0, truth + Vec2{0.04, 0.01}, 0.03);
    sys.transmit(0, truth + Vec2{0.01, -0.04}, 0.06);
    return sys.server().client_spectra(0, 0.07);
  };
  const auto s_with = run(with);
  const auto s_without = run(without);
  ASSERT_EQ(s_with.size(), 1u);
  ASSERT_EQ(s_without.size(), 1u);
  // Suppression removes peaks: never more peaks than unsuppressed.
  EXPECT_LE(s_with[0].spectrum.find_peaks(0.08).size(),
            s_without[0].spectrum.find_peaks(0.08).size());
}

TEST(ServerTest, LocateFromSpectraDirect) {
  const auto plan = open_plan();
  System sys(&plan, fast_config());
  sys.add_ap({1.0, 1.0}, deg2rad(45.0));
  sys.add_ap({19.0, 1.0}, deg2rad(135.0));
  const Vec2 truth{10.0, 5.0};
  sys.transmit(0, truth, 0.0);
  const auto spectra = sys.server().client_spectra(0, 0.01);
  const auto fix = sys.server().locate_from_spectra(spectra);
  ASSERT_TRUE(fix.has_value());
  EXPECT_LT(geom::distance(fix->position, truth), 1.0);
}

TEST(ServerTest, SetPipelineRebuildsProcessors) {
  const auto plan = open_plan();
  System sys(&plan, fast_config());
  sys.add_ap({1.0, 1.0}, deg2rad(45.0));
  const Vec2 truth{12.0, 6.0};
  sys.transmit(0, truth, 0.0);

  const auto before = sys.server().client_spectra(0, 0.01);
  ASSERT_EQ(before.size(), 1u);

  PipelineOptions raw;
  raw.geometry_weighting = false;
  raw.symmetry_removal = false;
  raw.bearing_sigma_deg = 0.0;
  sys.server().set_pipeline(raw);
  const auto after = sys.server().client_spectra(0, 0.01);
  ASSERT_EQ(after.size(), 1u);
  // The raw pipeline keeps the mirror; the default suppressed it.
  const double truth_local = wrap_2pi(
      sys.ap(0).array().bearing_to(truth));
  const double mirror = wrap_2pi(-truth_local);
  EXPECT_GT(after[0].spectrum.value_at(mirror) + 1e-9,
            before[0].spectrum.value_at(mirror));
}

}  // namespace
}  // namespace arraytrack::core
