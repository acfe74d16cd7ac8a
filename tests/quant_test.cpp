// The int16 coarse-to-fine position sweep. The contracts under test
// are stronger than the float kernels': the coarse score kernels must
// be *bitwise identical* across both dispatch levels (exact integer
// arithmetic), the coarse log table must be a certified upper bound on
// the float heatmap factors it prunes against, and the end-to-end
// quantized sweep (Localizer::locate) must produce fix sets
// byte-identical to the dense float sweep (Localizer::locate_dense),
// its oracle. The block bounds that decide which cells get a coarse
// score at all must dominate every cell they cover, and the selection
// they drive must keep exactly the sets of the full-grid reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "core/arraytrack.h"
#include "core/simd.h"
#include "core/synthesis.h"
#include "linalg/kernels.h"
#include "service/service.h"
#include "testbed/runner.h"

namespace arraytrack::core {

// The coarse pass's internals, for the oracles below.
struct LocalizerTestPeer {
  using Scratch = Localizer::QuantScratch;
  static constexpr std::size_t kBlock = Localizer::kCoarseBlock;

  static Heatmap shape(const Localizer& loc) { return loc.grid_shape(); }
  static std::size_t candidates(const Localizer& loc) {
    const Heatmap g = loc.grid_shape();
    return loc.candidate_count(g.nx * g.ny);
  }
  static const std::vector<std::int32_t>& bin0(const Localizer& loc,
                                               const ApSpectrum& ap) {
    return lut(loc, ap).bin0;
  }
  static std::pair<std::int32_t, std::int32_t> arc(const Localizer& loc,
                                                   const ApSpectrum& ap,
                                                   std::size_t block) {
    const auto& l = lut(loc, ap);
    return {l.arc_lo[block], l.arc_len[block]};
  }
  static bool select(const Localizer& loc, const std::vector<ApSpectrum>& aps,
                     Scratch& s) {
    return loc.quant_select(aps, s);
  }

 private:
  static const Localizer::BearingLut& lut(const Localizer& loc,
                                          const ApSpectrum& ap) {
    const Heatmap g = loc.grid_shape();
    // The cache keeps the table alive for the Localizer's lifetime.
    return *loc.bearing_lut(ap, g.nx, g.ny);
  }
};

}  // namespace arraytrack::core

namespace arraytrack {
namespace {

using Peer = core::LocalizerTestPeer;

using core::simd::ForcedLevel;
using core::simd::Level;
using linalg::CoarseLogTable;

std::vector<Level> runnable_levels() {
  std::vector<Level> out{Level::kScalar};
  if (core::simd::hardware_level() == Level::kAvx2) out.push_back(Level::kAvx2);
  return out;
}

// --- coarse score kernels --------------------------------------------

TEST(QuantKernelsTest, ScoreAccumBitwiseIdenticalAcrossLevels) {
  std::mt19937_64 rng(31);
  const std::size_t bins = 360, count = 1013;
  std::vector<std::int32_t> table(bins);
  std::uniform_int_distribution<std::int32_t> tv(-5000, 5000);
  for (auto& v : table) v = tv(rng);
  std::vector<std::int32_t> bin0(count);
  std::uniform_int_distribution<std::int32_t> bv(0, int(bins) - 1);
  for (auto& v : bin0) v = bv(rng);

  std::vector<std::int32_t> want(count, 17);
  {
    ForcedLevel g(Level::kScalar);
    linalg::kernels::score_accum(table.data(), bin0.data(), count,
                                 want.data());
  }
  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    std::vector<std::int32_t> got(count, 17);
    linalg::kernels::score_accum(table.data(), bin0.data(), count, got.data());
    for (std::size_t c = 0; c < count; ++c) ASSERT_EQ(got[c], want[c]);
  }
}

// --- the guard band is load-bearing -----------------------------------

// coarse_log_table commits to an upper bound: for every bin pair and
// every lerp fraction, the Q.6 entry must dominate 64 * log2 of the
// clamped interpolated float value. The pruner's exactness rests on
// this, so measure it directly across random spectra, including
// MUSIC-like spectra with enormous adjacent-bin ratios.
TEST(QuantGuardBandTest, PairMaxEntryDominatesEveryLerp) {
  std::mt19937_64 rng(43);
  const std::size_t bins = 360;
  const double floor = 1e-6;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> p(bins);
    std::uniform_real_distribution<double> mag(-6.0, 12.0);
    for (auto& v : p) v = std::pow(10.0, mag(rng));
    // Sharpen a few random peaks to MUSIC-denominator extremes.
    std::uniform_int_distribution<std::size_t> bi(0, bins - 1);
    for (int s = 0; s < 4; ++s) p[bi(rng)] = 1e12;

    const CoarseLogTable ct = linalg::coarse_log_table(p.data(), bins, floor);
    ASSERT_EQ(ct.pairmax.size(), bins);
    const double scale = double(1 << CoarseLogTable::kFracBits);
    for (std::size_t b = 0; b < bins; ++b) {
      const double p0 = p[b], p1 = p[(b + 1) % bins];
      // Tightness bound: the lerp can sink to the smaller clamped
      // endpoint, and the round-up log2 adds under log2(257/256) bits
      // plus one Q.6 step.
      const double c0 = std::max(p0, floor), c1 = std::max(p1, floor);
      const double slack_bits = std::log2(std::max(c0, c1) / std::min(c0, c1)) +
                                std::log2(257.0 / 256.0) + 2.0 / scale;
      for (double f : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        const double lerp = std::max((1.0 - f) * p0 + f * p1, floor);
        const double true_bits = std::log2(lerp) * scale;
        ASSERT_GE(double(ct.pairmax[b]) + 1e-9, true_bits)
            << "bin " << b << " frac " << f;
        ASSERT_LE(double(ct.pairmax[b]) / scale,
                  std::log2(lerp) + slack_bits + 1e-9);
      }
    }
  }
}

// --- coarse-to-fine localizer byte-identity ---------------------------

aoa::AoaSpectrum spectrum_peaking_at(double bearing_rad,
                                     double width_rad = deg2rad(4.0),
                                     std::size_t bins = 720) {
  aoa::AoaSpectrum s(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double d = aoa::bearing_distance(s.bin_bearing(i), bearing_rad);
    s[i] = std::exp(-0.5 * (d / width_rad) * (d / width_rad));
  }
  return s;
}

core::ApSpectrum ap_looking_at(geom::Vec2 pos, double orient,
                               geom::Vec2 target) {
  core::ApSpectrum ap;
  ap.ap_position = pos;
  ap.orientation_rad = orient;
  const double world = (target - pos).angle();
  ap.spectrum = spectrum_peaking_at(wrap_2pi(world - orient));
  return ap;
}

std::vector<core::ApSpectrum> office_row(geom::Vec2 truth) {
  return {ap_looking_at({0, 0}, 0.0, truth),
          ap_looking_at({10, 0}, deg2rad(90.0), truth),
          ap_looking_at({5, 10}, deg2rad(-45.0), truth),
          // One dead AP: empty spectrum, multiplies by the floor.
          core::ApSpectrum{{0, 10}, 0.0, aoa::AoaSpectrum{}}};
}

// "Off" is the dense float sweep, Localizer::locate_dense().
TEST(QuantLocalizerTest, LocateByteIdenticalQuantOnOffAtEveryLevel) {
  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    for (const geom::Vec2 truth :
         {geom::Vec2{6.0, 4.0}, geom::Vec2{1.3, 8.7}, geom::Vec2{9.9, 0.2}}) {
      const auto aps = office_row(truth);
      core::Localizer loc({{0, 0}, {10, 10}});
      const auto a = loc.locate(aps);
      const auto b = loc.locate_dense(aps);
      ASSERT_TRUE(a && b);
      // Byte-identical, not merely close.
      EXPECT_EQ(a->position.x, b->position.x)
          << core::simd::name(lvl) << " truth " << truth.x << "," << truth.y;
      EXPECT_EQ(a->position.y, b->position.y);
      EXPECT_EQ(a->likelihood, b->likelihood);
      // And the coarse pass genuinely pruned most of the grid.
      EXPECT_GT(loc.quant_pruned(), loc.quant_refined());
    }
  }
}

TEST(QuantLocalizerTest, LocateBatchByteIdenticalAcrossWidthsAndSwitch) {
  std::vector<std::vector<core::ApSpectrum>> batch;
  for (const geom::Vec2 truth :
       {geom::Vec2{6.0, 4.0}, geom::Vec2{1.3, 8.7}, geom::Vec2{9.9, 0.2},
        geom::Vec2{5.0, 5.0}, geom::Vec2{2.2, 2.2}})
    batch.push_back(office_row(truth));
  batch.push_back({});  // empty row keeps its nullopt contract

  for (Level lvl : runnable_levels()) {
    ForcedLevel g(lvl);
    core::Localizer loc({{0, 0}, {10, 10}});
    const auto got = loc.locate_batch(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      const auto want = loc.locate_dense(batch[j]);
      ASSERT_EQ(got[j].has_value(), want.has_value()) << "row " << j;
      if (!got[j]) continue;
      EXPECT_EQ(got[j]->position.x, want->position.x)
          << "row " << j << " level " << core::simd::name(lvl);
      EXPECT_EQ(got[j]->position.y, want->position.y);
      EXPECT_EQ(got[j]->likelihood, want->likelihood);
      // Batch rows equal single-row locate too.
      const auto single = loc.locate(batch[j]);
      ASSERT_TRUE(single);
      EXPECT_EQ(got[j]->position.x, single->position.x);
      EXPECT_EQ(got[j]->position.y, single->position.y);
      EXPECT_EQ(got[j]->likelihood, single->likelihood);
    }
    EXPECT_GT(loc.quant_pruned(), 0u);
  }
}

TEST(QuantLocalizerTest, NonPositiveFloorFallsBackToDensePath) {
  const auto aps = office_row({6.0, 4.0});
  core::LocalizerOptions opt;
  opt.floor = 0.0;  // log-domain coarse pass cannot run
  core::Localizer loc({{0, 0}, {10, 10}}, opt);
  const auto a = loc.locate(aps);
  const auto b = loc.locate_dense(aps);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->position.x, b->position.x);
  EXPECT_EQ(a->position.y, b->position.y);
  EXPECT_EQ(a->likelihood, b->likelihood);
  EXPECT_EQ(loc.quant_pruned(), 0u);  // nothing was pruned
  EXPECT_GT(loc.quant_refined(), 0u);  // the whole grid, densely
}

// --- block bounds ------------------------------------------------------

/// Coarse score of every grid cell: the sum over non-empty APs of the
/// pair-max entry at the cell's bin (what kernels::score_accum adds).
std::vector<std::int32_t> full_grid_scores(
    const core::Localizer& loc, const std::vector<core::ApSpectrum>& aps) {
  const core::Heatmap g = Peer::shape(loc);
  std::vector<std::int32_t> score(g.nx * g.ny, 0);
  for (const auto& ap : aps) {
    if (ap.spectrum.empty()) continue;
    const CoarseLogTable t = linalg::coarse_log_table(
        ap.spectrum.values().data(), ap.spectrum.bins(), loc.options().floor);
    const auto& bin0 = Peer::bin0(loc, ap);
    for (std::size_t c = 0; c < score.size(); ++c)
      score[c] += t.pairmax[std::size_t(bin0[c])];
  }
  return score;
}

/// Grid index ranges of block b: [x0, x1) x [y0, y1).
struct BlockCells {
  std::size_t x0, x1, y0, y1;
};
BlockCells block_cells(const core::Heatmap& g, std::size_t b) {
  const std::size_t nbx = (g.nx + Peer::kBlock - 1) / Peer::kBlock;
  const std::size_t x0 = b % nbx * Peer::kBlock, y0 = b / nbx * Peer::kBlock;
  return {x0, std::min(g.nx, x0 + Peer::kBlock), y0,
          std::min(g.ny, y0 + Peer::kBlock)};
}

aoa::AoaSpectrum rough_spectrum(std::mt19937_64& rng, std::size_t bins = 720) {
  aoa::AoaSpectrum s(bins);
  std::uniform_real_distribution<double> mag(-3.0, 0.0);
  for (std::size_t i = 0; i < bins; ++i) s[i] = std::pow(10.0, mag(rng));
  return s;
}

struct ArcCounts {
  std::size_t wrapped = 0, full = 0;
};

// U_b dominates the coarse score of every cell of block b, for the
// whole AP set and for each AP alone (where the bound is the arc's
// maximum, so a dropped arc bin shows), and each AP's arc holds every
// bin0 of the block.
void expect_bounds_dominate(const core::Localizer& loc,
                            const std::vector<core::ApSpectrum>& aps,
                            ArcCounts* counts = nullptr) {
  const core::Heatmap g = Peer::shape(loc);
  std::vector<std::vector<core::ApSpectrum>> sets{aps};
  for (const auto& ap : aps)
    if (!ap.spectrum.empty()) sets.push_back({ap});
  for (const auto& set : sets) {
    Peer::Scratch s;
    Peer::select(loc, set, s);
    const auto score = full_grid_scores(loc, set);
    for (std::size_t b = 0; b < s.bound.size(); ++b) {
      const BlockCells bc = block_cells(g, b);
      std::int32_t top = std::numeric_limits<std::int32_t>::min();
      for (std::size_t y = bc.y0; y < bc.y1; ++y)
        for (std::size_t x = bc.x0; x < bc.x1; ++x)
          top = std::max(top, score[y * g.nx + x]);
      ASSERT_GE(s.bound[b], top) << "block " << b << " of " << s.bound.size()
                                 << ", " << set.size() << " APs";
    }
  }
  for (const auto& ap : aps) {
    if (ap.spectrum.empty()) continue;
    const auto bins = std::int32_t(ap.spectrum.bins());
    const auto& bin0 = Peer::bin0(loc, ap);
    const std::size_t nblocks =
        ((g.nx + Peer::kBlock - 1) / Peer::kBlock) *
        ((g.ny + Peer::kBlock - 1) / Peer::kBlock);
    for (std::size_t b = 0; b < nblocks; ++b) {
      const auto [lo, len] = Peer::arc(loc, ap, b);
      EXPECT_TRUE(lo >= 0 && lo < bins && len >= 0 && len < bins);
      if (counts) {
        counts->full += len == bins - 1;
        counts->wrapped += len < bins - 1 && lo + len >= bins;
      }
      const BlockCells bc = block_cells(g, b);
      for (std::size_t y = bc.y0; y < bc.y1; ++y)
        for (std::size_t x = bc.x0; x < bc.x1; ++x) {
          const std::int32_t off = (bin0[y * g.nx + x] - lo + bins) % bins;
          ASSERT_LE(off, len) << "block " << b << " cell " << x << "," << y;
        }
    }
  }
}

TEST(QuantBlockBoundTest, BoundDominatesCells) {
  std::mt19937_64 rng(59);
  // The office testbed's grid (320 x 140 cells: the last block row is
  // partial) with its six AP poses, testbed spectra and rough ones.
  auto tb = testbed::OfficeTestbed::standard();
  testbed::ExperimentRunner runner(&tb);
  const auto obs = runner.observe_clients({0, 17});
  const auto& office = runner.system().server().localizer();
  for (const auto& o : obs) expect_bounds_dominate(office, o.per_ap);
  std::vector<core::ApSpectrum> rough = obs[0].per_ap;
  for (auto& ap : rough) ap.spectrum = rough_spectrum(rng);
  rough.back().spectrum = aoa::AoaSpectrum{};  // a dead AP adds `base`
  expect_bounds_dominate(office, rough);

  // 10 x 10 m at 0.1 m: 100 x 100 cells, partial blocks on both far
  // edges, and two APs inside the grid, so some blocks take the full
  // circle and arcs straddle bin 0.
  core::Localizer room({{0, 0}, {10, 10}});
  ASSERT_EQ(Peer::shape(room).nx % Peer::kBlock, 4u);
  const std::vector<std::pair<geom::Vec2, double>> poses = {
      {{4.03, 5.51}, 0.0},
      {{7.7, 2.2}, deg2rad(100.0)},
      {{0.0, 0.0}, deg2rad(45.0)},
      {{10.0, 10.0}, deg2rad(-135.0)}};
  std::vector<core::ApSpectrum> aps;
  for (const auto& [pos, orient] : poses)
    aps.push_back(core::ApSpectrum{pos, orient, rough_spectrum(rng)});
  ArcCounts counts;
  expect_bounds_dominate(room, aps, &counts);
  EXPECT_GT(counts.full, 0u);
  EXPECT_GT(counts.wrapped, 0u);
}

/// Today's full-grid selection, kept as the reference for the block
/// bounds: coarse scores over every cell, probe-and-trim to the top K,
/// exact values from the dense heatmap, then every cell whose score
/// clears the certified threshold. `fallback` marks the rows it hands
/// to the dense path.
struct ReferenceSelection {
  bool fallback = true;
  std::vector<std::size_t> top, survivors;
};

ReferenceSelection full_grid_reference(
    const core::Localizer& loc, const std::vector<core::ApSpectrum>& aps) {
  using linalg::kernels::score_collect_ge;
  using linalg::kernels::score_count_ge;
  ReferenceSelection out;
  const core::Heatmap g = Peer::shape(loc);
  const std::size_t ncells = g.nx * g.ny;
  const std::size_t candidates = Peer::candidates(loc);
  const double floor = loc.options().floor;
  if (floor <= 0.0 || candidates >= ncells) return out;
  const auto score = full_grid_scores(loc, aps);
  std::int64_t base = 0;
  for (const auto& ap : aps)
    if (ap.spectrum.empty())
      base += std::int64_t(std::ceil(
          std::log2(floor) * double(1 << CoarseLogTable::kFracBits)));

  const auto thr32 = [](std::int64_t t) {
    return std::int32_t(std::clamp<std::int64_t>(
        t, std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int32_t>::max()));
  };
  const std::int32_t smax = linalg::kernels::score_max(score.data(), ncells);
  std::int64_t dlo = 0, dhi = 64;
  while (score_count_ge(score.data(), ncells,
                        thr32(std::int64_t(smax) - dhi)) < candidates) {
    dlo = dhi;
    dhi *= 2;
  }
  for (int step = 0; step < 3 && dhi - dlo > 1; ++step) {
    const std::int64_t mid = dlo + (dhi - dlo) / 2;
    if (score_count_ge(score.data(), ncells,
                       thr32(std::int64_t(smax) - mid)) >= candidates)
      dhi = mid;
    else
      dlo = mid;
  }
  const std::int32_t ta = thr32(std::int64_t(smax) - dhi);
  const std::size_t cnt_a = score_count_ge(score.data(), ncells, ta);
  if (cnt_a > ncells / 2) return out;
  std::vector<std::uint32_t> picked(cnt_a);
  score_collect_ge(score.data(), ncells, ta, picked.data());
  if (picked.size() > candidates) {
    std::nth_element(picked.begin(),
                     picked.begin() + std::ptrdiff_t(candidates), picked.end(),
                     [&](std::uint32_t i, std::uint32_t j) {
                       if (score[i] != score[j]) return score[i] > score[j];
                       return i < j;
                     });
    picked.resize(candidates);
  }
  out.top.assign(picked.begin(), picked.end());
  std::sort(out.top.begin(), out.top.end());

  // The dense sweep's value at every cell.
  const core::Heatmap map = loc.heatmap(aps);
  double exact_min = map.cells[out.top[0]];
  for (std::size_t c : out.top) exact_min = std::min(exact_min, map.cells[c]);
  if (!(exact_min > 0.0) || !std::isfinite(exact_min)) return out;
  const std::int64_t lq =
      std::int64_t(std::ceil(std::log2(exact_min) *
                             double(1 << CoarseLogTable::kFracBits))) -
      1;
  const std::int32_t tb = thr32(lq - base);
  const std::size_t cnt_b = score_count_ge(score.data(), ncells, tb);
  if (cnt_b > ncells / 2) return out;
  std::vector<std::uint32_t> above(cnt_b);
  score_collect_ge(score.data(), ncells, tb, above.data());
  out.survivors = out.top;
  for (std::uint32_t c : above)
    if (!std::binary_search(out.top.begin(), out.top.end(), std::size_t(c)))
      out.survivors.push_back(c);
  std::sort(out.survivors.begin(), out.survivors.end());
  out.fallback = false;
  return out;
}

// The block-bounded selection keeps exactly the reference's top-K and
// survivor sets, with the dense sweep's values, and the localizer's
// pruned/refined counters move by exactly the reference's counts —
// for every testbed client under every 3-6-AP subset at every level.
TEST(QuantBlockBoundTest, SelectionMatchesFullGridReference) {
  auto tb = testbed::OfficeTestbed::standard();
  testbed::ExperimentRunner runner(&tb);
  const auto obs = runner.observe_all_clients();
  const auto& loc = runner.system().server().localizer();
  const core::Heatmap g = Peer::shape(loc);
  const std::size_t ncells = g.nx * g.ny;
  std::size_t rows = 0, scored = 0;
  for (Level lvl : runnable_levels()) {
    ForcedLevel guard(lvl);
    for (std::size_t k = 3; k <= obs[0].per_ap.size(); ++k)
      for (const auto& subset :
           testbed::ExperimentRunner::combinations(obs[0].per_ap.size(), k))
        for (std::size_t ci = 0; ci < obs.size(); ++ci) {
          std::vector<core::ApSpectrum> aps;
          for (std::size_t a : subset) aps.push_back(obs[ci].per_ap[a]);
          const std::string where = std::string(core::simd::name(lvl)) +
                                    " client " + std::to_string(ci) + " " +
                                    std::to_string(k) + " APs";
          const ReferenceSelection want = full_grid_reference(loc, aps);
          Peer::Scratch s;
          const bool selected = Peer::select(loc, aps, s);
          // No testbed row is flat or degenerate under either rule.
          ASSERT_FALSE(want.fallback) << where;
          ASSERT_TRUE(selected) << where;
          ASSERT_EQ(s.top, want.top) << where;
          ASSERT_EQ(s.survivors, want.survivors) << where;
          const core::Heatmap map = loc.heatmap(aps);
          for (std::size_t i = 0; i < s.survivors.size(); ++i)
            ASSERT_EQ(s.values[i], map.cells[s.survivors[i]]) << where;

          const auto pruned = loc.quant_pruned(), refined = loc.quant_refined(),
                     scored0 = loc.quant_scored();
          ASSERT_TRUE(loc.locate(aps)) << where;
          EXPECT_EQ(loc.quant_refined() - refined, want.survivors.size())
              << where;
          EXPECT_EQ(loc.quant_pruned() - pruned,
                    ncells - want.survivors.size())
              << where;
          EXPECT_EQ(loc.quant_scored() - scored0, s.score.size()) << where;
          ++rows;
          scored += s.score.size();
        }
  }
  EXPECT_EQ(rows, runnable_levels().size() * obs.size() * 42);
  // The bounds must do their job: under a tenth of the cells scored.
  EXPECT_LT(double(scored), 0.1 * double(rows * ncells));
}

// --- service layer -----------------------------------------------------

geom::Floorplan service_plan() {
  geom::Floorplan plan({{0, 0}, {18, 10}});
  plan.add_wall({0, 0}, {18, 0}, geom::Material::kBrick);
  plan.add_wall({18, 0}, {18, 10}, geom::Material::kBrick);
  plan.add_wall({18, 10}, {0, 10}, geom::Material::kBrick);
  plan.add_wall({0, 10}, {0, 0}, geom::Material::kBrick);
  return plan;
}

std::unique_ptr<core::System> service_system(const geom::Floorplan* plan) {
  core::SystemConfig cfg;
  cfg.server.localizer.grid_step_m = 0.25;  // keep tests quick
  auto sys = std::make_unique<core::System>(plan, cfg);
  sys->add_ap({1, 1}, deg2rad(45.0));
  sys->add_ap({17, 1}, deg2rad(135.0));
  sys->add_ap({9, 9.5}, deg2rad(-90.0));
  return sys;
}

std::vector<core::FrameEvent> service_schedule() {
  const std::vector<geom::Vec2> sites = {{12.0, 6.0}, {5.0, 3.0}, {9.0, 7.0}};
  std::vector<core::FrameEvent> out;
  for (int i = 0; i < 5; ++i)
    for (int c = 0; c < 3; ++c)
      out.push_back({0.1 + 0.2 * i + 0.011 * c, c, sites[std::size_t(c)]});
  std::sort(out.begin(), out.end(),
            [](const core::FrameEvent& a, const core::FrameEvent& b) {
              return a.time_s < b.time_s;
            });
  return out;
}

// The quantized sweep is invisible in the service's output: fix
// streams are byte-identical at every worker count and batch width
// (each fix matches the dense oracle in batch_test's
// BatchServiceTest.FixesMatchPerJobDenseOracle), while the stats JSON
// shows the pruner doing real work.
TEST(QuantServiceTest, ServiceFixesByteIdenticalAndStatsReportQuant) {
  const auto plan = service_plan();
  const auto schedule = service_schedule();

  std::vector<service::ServiceReport> reports;
  for (std::size_t workers : {1u, 4u}) {
    for (std::size_t batch : {1u, 4u}) {
      auto sys = service_system(&plan);
      service::ServiceOptions opt;
      opt.workers = workers;
      opt.batch_max = batch;
      opt.virtual_clock = true;
      opt.virtual_cost_s = 0.02;
      opt.latency_slo_s = 0.5;
      service::LocationService svc(sys.get(), opt);
      reports.push_back(svc.run(schedule));
      const auto& loc = sys->server().localizer();
      EXPECT_GT(loc.quant_pruned(), 0u);
      EXPECT_GT(loc.quant_pruned(), loc.quant_refined());
      const std::string stats = svc.stats_json();
      EXPECT_NE(stats.find("\"quant\""), std::string::npos);
      EXPECT_NE(stats.find("\"quant_pruned\""), std::string::npos);
      EXPECT_NE(stats.find("\"quant_scored\": " +
                           std::to_string(loc.quant_scored())),
                std::string::npos);
      // Block bounds leave most cells unscored.
      EXPECT_GT(loc.quant_scored(), 0u);
      EXPECT_LT(loc.quant_scored(), loc.quant_pruned());
      EXPECT_NE(stats.find("\"steering_table_bytes\""), std::string::npos);
      EXPECT_NE(stats.find(std::string("\"simd_level\": \"") +
                           core::simd::name(core::simd::active()) + "\""),
                std::string::npos);
    }
  }

  const auto& base = reports.front();
  ASSERT_GT(base.fixes.size(), 0u);
  for (std::size_t r = 1; r < reports.size(); ++r) {
    const auto& other = reports[r];
    ASSERT_EQ(base.fixes.size(), other.fixes.size()) << "run " << r;
    for (std::size_t i = 0; i < base.fixes.size(); ++i) {
      EXPECT_EQ(base.fixes[i].client_id, other.fixes[i].client_id);
      EXPECT_EQ(base.fixes[i].position.x, other.fixes[i].position.x);
      EXPECT_EQ(base.fixes[i].position.y, other.fixes[i].position.y);
      EXPECT_EQ(base.fixes[i].likelihood, other.fixes[i].likelihood);
    }
  }
}

}  // namespace
}  // namespace arraytrack
