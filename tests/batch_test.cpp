// Tests for the batched multi-client localization path.
//
// The load-bearing contract is bitwise determinism: batching changes
// memory traffic, never results. Each layer is pinned against an
// independent reference — the blur FIR and aoa::blur_rows against the
// naive %-indexed circular convolution at every SIMD level,
// Localizer::locate_batch against sequential locate() calls (including
// ragged batch sizes), and every LocationService fix against a per-job
// oracle (process_sharp -> naive blur -> suppress_multipath ->
// Localizer::locate_dense) at batch widths 1 and 8. The fix set is
// also pinned across batch widths and worker counts under the virtual
// clock. The service suite runs under the ThreadSanitizer tier of
// tools/check.sh, which makes the multi-worker batch drain a race
// test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "aoa/spectrum.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "core/suppression.h"
#include "core/synthesis.h"
#include "linalg/kernels.h"
#include "phy/wire.h"
#include "service/service.h"

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
// Kernel layer
// ---------------------------------------------------------------------

TEST(BatchKernelsTest, FirBatchBitwiseMatchesPortableLoop) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  // Output lengths around the vector kernel's 32- and 4-sample blocks
  // and its scalar tail, each with tap counts from 1 up to nout.
  for (std::size_t nout :
       {1u, 3u, 4u, 5u, 15u, 16u, 17u, 31u, 32u, 33u, 240u, 721u}) {
    std::vector<std::size_t> tap_counts = {1, 2, 3, 33, nout};
    for (Level lvl : testable_levels()) {
      ForcedLevel g(lvl);
      for (std::size_t ntaps : tap_counts) {
        if (ntaps > nout) continue;
        std::vector<double> taps(ntaps);
        for (auto& v : taps) v = u(rng);
        const std::size_t nin = nout + ntaps - 1;
        for (std::size_t nrows : {1u, 3u, 8u, 9u}) {
          std::vector<double> in(nin * nrows);
          for (auto& v : in) v = u(rng);
          std::vector<double> out(nout * nrows);
          linalg::kernels::fir_batch(in.data(), nrows, nout, taps.data(),
                                     ntaps, out.data());
          for (std::size_t r = 0; r < nrows; ++r)
            for (std::size_t i = 0; i < nout; ++i) {
              // The portable blur loop: plain multiply-add, strictly
              // tap-ascending, over row r's contiguous window.
              double acc = 0.0;
              for (std::size_t j = 0; j < ntaps; ++j)
                acc += taps[j] * in[r * nin + i + j];
              ASSERT_EQ(0, std::memcmp(&acc, &out[r * nout + i], 8))
                  << "level " << core::simd::name(lvl) << " nout " << nout
                  << " ntaps " << ntaps << " nrows " << nrows << " row " << r
                  << " sample " << i;
            }
        }
      }
    }
  }
}

/// The reference bearing blur: the naive circular convolution, each
/// output bin accumulated from zero over a %-indexed window in
/// ascending tap order.
aoa::AoaSpectrum naive_blur(const aoa::AoaSpectrum& in, double sigma_rad) {
  const std::size_t n = in.bins();
  const std::vector<double> taps = aoa::gaussian_taps(sigma_rad, n);
  if (taps.empty()) return in;
  const std::size_t half = taps.size() / 2;
  aoa::AoaSpectrum out(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < taps.size(); ++j)
      out[i] += taps[j] * in[(i + n + j - half) % n];
  return out;
}

aoa::AoaSpectrum random_spectrum(std::size_t bins, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  aoa::AoaSpectrum s(bins);
  for (std::size_t i = 0; i < bins; ++i) s[i] = u(rng);
  return s;
}

TEST(BatchKernelsTest, BlurRowsBitwiseMatchesNaiveConvolution) {
  std::mt19937_64 rng(29);
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    // Narrow (the 2-degree default), wide, and wider-than-the-circle
    // kernels (half clamps to bins / 2), over stacks of 1..9 rows.
    for (double sigma_deg : {2.0, 15.0, 400.0}) {
      const double sigma = deg2rad(sigma_deg);
      for (std::size_t bins : {720u, 97u, 3u}) {
        for (std::size_t nrows : {1u, 3u, 8u, 9u}) {
          std::vector<aoa::AoaSpectrum> rows;
          for (std::size_t r = 0; r < nrows; ++r)
            rows.push_back(random_spectrum(bins, rng));
          std::vector<aoa::AoaSpectrum> want;
          for (const auto& r : rows) want.push_back(naive_blur(r, sigma));
          aoa::blur_rows(sigma, rows);
          for (std::size_t r = 0; r < nrows; ++r)
            ASSERT_EQ(0, std::memcmp(rows[r].values().data(),
                                     want[r].values().data(),
                                     bins * sizeof(double)))
                << "level " << core::simd::name(lvl) << " sigma " << sigma_deg
                << " bins " << bins << " nrows " << nrows << " row " << r;
        }
      }
    }
    // Mixed sizes blur row by row; convolve_gaussian is the one-row case.
    std::vector<aoa::AoaSpectrum> mixed = {random_spectrum(720, rng),
                                           random_spectrum(360, rng)};
    const auto want0 = naive_blur(mixed[0], deg2rad(2.0));
    const auto want1 = naive_blur(mixed[1], deg2rad(2.0));
    aoa::blur_rows(deg2rad(2.0), mixed);
    EXPECT_EQ(mixed[0].values(), want0.values());
    EXPECT_EQ(mixed[1].values(), want1.values());
    auto one = random_spectrum(720, rng);
    const auto want_one = naive_blur(one, deg2rad(2.0));
    one.convolve_gaussian(deg2rad(2.0));
    EXPECT_EQ(one.values(), want_one.values());
  }
}

// ---------------------------------------------------------------------
// Localizer layer
// ---------------------------------------------------------------------

aoa::AoaSpectrum spectrum_peaking_at(double bearing_rad,
                                     std::size_t bins = 360) {
  aoa::AoaSpectrum s(bins);
  const double width = deg2rad(5.0);
  for (std::size_t i = 0; i < bins; ++i) {
    const double d = aoa::bearing_distance(s.bin_bearing(i), bearing_rad);
    s[i] = std::exp(-0.5 * (d / width) * (d / width));
  }
  return s;
}

core::ApSpectrum ap_looking_at(geom::Vec2 pos, double orient,
                               geom::Vec2 target) {
  core::ApSpectrum ap;
  ap.ap_position = pos;
  ap.orientation_rad = orient;
  ap.spectrum = spectrum_peaking_at(wrap_2pi((target - pos).angle() - orient));
  return ap;
}

/// `n` localization requests over shared AP poses (one LUT group),
/// with the last row, when present, on a different pose set (a second
/// group) — so batches exercise both the shared and the split path.
std::vector<std::vector<core::ApSpectrum>> make_batch(std::size_t n) {
  std::vector<std::vector<core::ApSpectrum>> batch;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(2.0, 8.0);
  for (std::size_t j = 0; j < n; ++j) {
    const geom::Vec2 target{u(rng), u(rng)};
    if (j + 1 == n && n > 1) {
      batch.push_back({ap_looking_at({0.5, 0.5}, deg2rad(10.0), target),
                       ap_looking_at({9.5, 5.0}, deg2rad(170.0), target)});
    } else {
      batch.push_back({ap_looking_at({0, 0}, 0.0, target),
                       ap_looking_at({10, 0}, deg2rad(90.0), target),
                       ap_looking_at({5, 9.5}, deg2rad(-90.0), target)});
    }
  }
  return batch;
}

TEST(BatchLocalizerTest, LocateBatchBitwiseMatchesSequentialLocate) {
  core::LocalizerOptions opt;
  opt.threads = 1;
  const core::Localizer loc({{0, 0}, {10, 10}}, opt);
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    for (std::size_t n : {1u, 7u, 8u, 9u}) {
      const auto batch = make_batch(n);
      const auto got = loc.locate_batch(batch);
      ASSERT_EQ(got.size(), n);
      for (std::size_t j = 0; j < n; ++j) {
        const auto want = loc.locate(batch[j]);
        ASSERT_EQ(want.has_value(), got[j].has_value());
        ASSERT_TRUE(want.has_value());
        // Bitwise, not near: batching must not change results.
        EXPECT_EQ(want->position.x, got[j]->position.x)
            << "level " << core::simd::name(lvl) << " n " << n << " row " << j;
        EXPECT_EQ(want->position.y, got[j]->position.y);
        EXPECT_EQ(want->likelihood, got[j]->likelihood);
      }
    }
  }
}

TEST(BatchLocalizerTest, LocateBatchKeepsEmptyRowContract) {
  core::LocalizerOptions opt;
  opt.threads = 1;
  const core::Localizer loc({{0, 0}, {10, 10}}, opt);
  auto batch = make_batch(3);
  batch.emplace(batch.begin() + 1);  // empty row mid-batch
  batch.push_back({});
  const auto got = loc.locate_batch(batch);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_FALSE(got[1].has_value());
  EXPECT_FALSE(got[4].has_value());
  for (std::size_t j : {0u, 2u, 3u}) ASSERT_TRUE(got[j].has_value());
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

TEST(BatchServiceTest, FixesByteIdenticalAcrossBatchWidthsAndWorkers) {
  // Two contracts, asserted separately. (1) The drain width never
  // changes anything: at a fixed worker count, every fix field —
  // including virtual-clock timing — is byte-identical for batch_max
  // 1/4/16. (2) The admitted job set and its results are also
  // worker-count invariant (schedule is non-saturating, like
  // service_test's, so coalescing does not depend on capacity);
  // latencies legitimately differ across worker counts, so those are
  // excluded from the cross-worker comparison.
  const auto plan = make_plan();
  // The 0.011 s client stagger against a 0.02 s virtual cost means a
  // single worker drains multi-job batches each round, while the
  // 0.2 s round gap empties every queue before the next round.
  const auto schedule = interleaved_schedule(4, 6, 0.2);

  auto run = [&](std::size_t workers, std::size_t batch_max) {
    auto sys = make_system(&plan);
    service::ServiceOptions opt;
    opt.workers = workers;
    opt.batch_max = batch_max;
    opt.virtual_clock = true;
    opt.virtual_cost_s = 0.02;
    opt.latency_slo_s = 0.5;
    service::LocationService svc(sys.get(), opt);
    return svc.run(schedule);
  };

  std::vector<service::ServiceReport> per_worker_base;
  for (std::size_t workers : {1u, 2u, 8u}) {
    const auto base = run(workers, 1);
    ASSERT_GT(base.fixes.size(), 0u);
    for (std::size_t batch_max : {4u, 16u}) {
      const auto other = run(workers, batch_max);
      ASSERT_EQ(base.fixes.size(), other.fixes.size())
          << "workers " << workers << " batch_max " << batch_max;
      EXPECT_EQ(base.jobs_coalesced, other.jobs_coalesced);
      EXPECT_EQ(base.shed_deadline, other.shed_deadline);
      for (std::size_t i = 0; i < base.fixes.size(); ++i) {
        const auto& a = base.fixes[i];
        const auto& b = other.fixes[i];
        EXPECT_EQ(a.client_id, b.client_id);
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.frame_time_s, b.frame_time_s);
        EXPECT_EQ(a.position.x, b.position.x)
            << "workers " << workers << " batch_max " << batch_max << " fix "
            << i;
        EXPECT_EQ(a.position.y, b.position.y);
        EXPECT_EQ(a.smoothed.x, b.smoothed.x);
        EXPECT_EQ(a.smoothed.y, b.smoothed.y);
        EXPECT_EQ(a.likelihood, b.likelihood);
        EXPECT_EQ(a.latency_s, b.latency_s);
      }
    }
    per_worker_base.push_back(base);
  }

  const auto& w1 = per_worker_base.front();
  for (std::size_t r = 1; r < per_worker_base.size(); ++r) {
    const auto& other = per_worker_base[r];
    ASSERT_EQ(w1.fixes.size(), other.fixes.size()) << "worker run " << r;
    EXPECT_EQ(w1.jobs_coalesced, other.jobs_coalesced);
    for (std::size_t i = 0; i < w1.fixes.size(); ++i) {
      const auto& a = w1.fixes[i];
      const auto& b = other.fixes[i];
      EXPECT_EQ(a.client_id, b.client_id);
      EXPECT_EQ(a.seq, b.seq);
      EXPECT_EQ(a.frame_time_s, b.frame_time_s);
      EXPECT_EQ(a.position.x, b.position.x) << "worker run " << r;
      EXPECT_EQ(a.position.y, b.position.y);
      EXPECT_EQ(a.smoothed.x, b.smoothed.x);
      EXPECT_EQ(a.smoothed.y, b.smoothed.y);
      EXPECT_EQ(a.likelihood, b.likelihood);
    }
  }
}

TEST(BatchServiceTest, BatchOccupancyRecordedInStats) {
  const auto plan = make_plan();
  auto sys = make_system(&plan);
  service::ServiceOptions opt;
  opt.workers = 1;
  opt.batch_max = 4;
  opt.virtual_clock = true;
  opt.virtual_cost_s = 0.02;
  opt.latency_slo_s = 0.5;
  service::LocationService svc(sys.get(), opt);
  const auto rep = svc.run(interleaved_schedule(4, 4, 0.05));
  ASSERT_GT(rep.fixes.size(), 0u);
  EXPECT_GT(svc.stats().batch_occupancy.count(), 0u);
  EXPECT_GE(svc.stats().batch_occupancy.max_seen(), 1.0);
  EXPECT_NE(rep.stats_json.find("\"batch_occupancy\""), std::string::npos);
  EXPECT_NE(rep.stats_json.find("\"batch_max\": 4"), std::string::npos);
}

// Every fix the service emits, at batch widths 1 and 8 and at every
// SIMD level, equals an independent per-job oracle: each AP's frames
// through process_sharp (fed the client's own tracked subspaces in job
// order), the naive blur, peak normalization, suppress_multipath, and
// the dense float sweep (locate_dense). The service is fed wire
// records in one ingest call, so its one worker finds full batches on
// the single shard; a client's transmissions are 0.2 s apart, beyond
// the 0.1 s grouping window, so each job holds exactly the decoded
// records of its own transmission.
TEST(BatchServiceTest, FixesMatchPerJobDenseOracle) {
  const auto plan = make_plan();
  const auto schedule = interleaved_schedule(4, 6, 0.2);

  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    auto capture = make_system(&plan);
    const auto& sopt = capture->server().options();
    std::vector<std::unique_ptr<core::ApProcessor>> procs;
    for (std::size_t a = 0; a < capture->num_aps(); ++a)
      procs.push_back(std::make_unique<core::ApProcessor>(
          &capture->ap(int(a)), sopt.pipeline));
    const phy::WireFormat wire;
    std::vector<service::LocationService::TimedWireRecord> records;
    std::map<int, core::ClientSubspace> subs;
    std::map<std::pair<int, std::uint64_t>, core::LocationEstimate> want;
    std::map<int, std::uint64_t> next_seq;
    for (const auto& ev : schedule) {
      capture->transmit(ev.client_id, ev.position, ev.time_s);
      auto [it, fresh] = subs.try_emplace(ev.client_id);
      if (fresh) it->second = capture->server().make_client_subspace();
      std::vector<core::ApSpectrum> spectra;
      for (std::size_t a = 0; a < capture->num_aps(); ++a) {
        auto bytes = wire.encode(capture->ap(int(a)).buffer().newest());
        const auto frame = wire.decode(bytes);
        ASSERT_TRUE(frame.has_value());
        records.push_back({ev.time_s, a, std::move(bytes)});
        aoa::AoaSpectrum spec = naive_blur(
            procs[a]->process_sharp(*frame, it->second.tracker(a)),
            deg2rad(sopt.pipeline.bearing_sigma_deg));
        spec.normalize();
        const std::vector<aoa::AoaSpectrum> group{std::move(spec)};
        aoa::AoaSpectrum fused =
            sopt.multipath_suppression
                ? core::suppress_multipath(group, sopt.suppression)
                : group.front();
        fused.normalize();
        spectra.push_back({capture->ap(int(a)).array().position(),
                           capture->ap(int(a)).array().orientation(),
                           std::move(fused)});
      }
      const auto fix = capture->server().localizer().locate_dense(spectra);
      ASSERT_TRUE(fix.has_value());
      want[{ev.client_id, next_seq[ev.client_id]++}] = *fix;
    }

    for (std::size_t batch_max : {1u, 8u}) {
      auto sys = make_system(&plan);
      service::ServiceOptions opt;
      opt.workers = 1;
      opt.shards = 1;
      opt.batch_max = batch_max;
      opt.coalesce_per_client = false;
      opt.virtual_clock = true;
      opt.virtual_cost_s = 0.02;
      opt.latency_slo_s = 10.0;
      service::LocationService svc(sys.get(), opt);
      const auto rep = svc.run_wire(records);
      ASSERT_EQ(rep.fixes.size(), schedule.size())
          << "level " << core::simd::name(lvl) << " batch_max " << batch_max;
      EXPECT_EQ(svc.stats().batch_occupancy.max_seen(), double(batch_max));
      for (const auto& f : rep.fixes) {
        const auto it = want.find({f.client_id, f.seq});
        ASSERT_NE(it, want.end()) << "client " << f.client_id << " seq " << f.seq;
        EXPECT_EQ(f.position.x, it->second.position.x)
            << "level " << core::simd::name(lvl) << " batch_max " << batch_max
            << " client " << f.client_id << " seq " << f.seq;
        EXPECT_EQ(f.position.y, it->second.position.y);
        EXPECT_EQ(f.likelihood, it->second.likelihood);
      }
    }
  }
}

}  // namespace
}  // namespace arraytrack
