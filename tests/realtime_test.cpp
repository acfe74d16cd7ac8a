// Tests for live frame arrivals served by a single backend: the
// location service as one worker draining one global FIFO, no batching,
// an effectively unbounded queue and no SLO shedding, timed by the
// virtual fixed-cost clock.
#include <gtest/gtest.h>

#include <memory>

#include "service/service.h"

namespace arraytrack::service {
namespace {

using core::FrameEvent;
using geom::Vec2;

struct Rig {
  Rig() : plan(make_plan()) {
    core::SystemConfig cfg;
    cfg.server.localizer.grid_step_m = 0.25;  // keep tests quick
    sys = std::make_unique<core::System>(&plan, cfg);
    sys->add_ap({1, 1}, deg2rad(45.0));
    sys->add_ap({17, 1}, deg2rad(135.0));
    sys->add_ap({9, 9.5}, deg2rad(-90.0));
  }
  static geom::Floorplan make_plan() {
    geom::Floorplan plan({{0, 0}, {18, 10}});
    plan.add_wall({0, 0}, {18, 0}, geom::Material::kBrick);
    plan.add_wall({18, 0}, {18, 10}, geom::Material::kBrick);
    plan.add_wall({18, 10}, {0, 10}, geom::Material::kBrick);
    plan.add_wall({0, 10}, {0, 0}, geom::Material::kBrick);
    return plan;
  }
  geom::Floorplan plan;
  std::unique_ptr<core::System> sys;
};

ServiceOptions single_backend() {
  ServiceOptions opt;
  opt.workers = 1;
  opt.shards = 1;
  opt.batch_max = 1;
  opt.shard_queue_capacity = std::size_t(1) << 20;
  opt.latency_slo_s = 0.0;
  opt.tracked_fixes = false;
  opt.virtual_clock = true;
  return opt;
}

std::vector<FrameEvent> steady_schedule(int frames, double gap_s, Vec2 pos) {
  std::vector<FrameEvent> out;
  for (int i = 0; i < frames; ++i)
    out.push_back({0.1 + gap_s * i, 0, pos});
  return out;
}

TEST(RealtimeTest, EmptyScheduleEmptyReport) {
  Rig rig;
  LocationService svc(rig.sys.get(), single_backend());
  const auto report = svc.run({});
  EXPECT_EQ(report.frames_in, 0u);
  EXPECT_TRUE(report.fixes.empty());
  EXPECT_DOUBLE_EQ(report.fix_rate_hz(), 0.0);
}

TEST(RealtimeTest, ProducesFixesWithTransportFloor) {
  Rig rig;
  const ServiceOptions opt = single_backend();
  LocationService svc(rig.sys.get(), opt);
  const auto report = svc.run(steady_schedule(5, 0.2, {12.0, 6.0}));
  ASSERT_GE(report.fixes.size(), 4u);
  const double floor_s = opt.transport.detection_s +
                         opt.transport.serialization_s() +
                         opt.transport.bus_latency_s + opt.virtual_cost_s;
  for (const auto& f : report.fixes) {
    // Latency can never beat detection + serialization + bus plus the
    // modeled per-job cost.
    EXPECT_GE(f.latency_s, floor_s - 1e-9);
    EXPECT_LT(f.latency_s, 1.0);
    EXPECT_GE(f.error_m, 0.0);
    EXPECT_LT(f.error_m, 1.5);
    EXPECT_EQ(f.client_id, 0);
  }
}

TEST(RealtimeTest, CoalescingBoundsQueue) {
  // 100 frames in a burst for one client: with coalescing, the server
  // does a handful of jobs rather than 100.
  Rig rig;
  LocationService svc(rig.sys.get(), single_backend());
  const auto report = svc.run(steady_schedule(100, 0.001, {9.0, 5.0}));
  EXPECT_EQ(report.frames_in, 100u);
  EXPECT_GT(report.jobs_coalesced, 80u);
  EXPECT_LT(report.fixes.size(), 20u);
}

TEST(RealtimeTest, NoCoalescingProcessesEveryFrame) {
  Rig rig;
  ServiceOptions opt = single_backend();
  opt.coalesce_per_client = false;
  LocationService svc(rig.sys.get(), opt);
  const auto report = svc.run(steady_schedule(10, 0.2, {9.0, 5.0}));
  EXPECT_EQ(report.jobs_coalesced, 0u);
  EXPECT_EQ(report.fixes.size(), 10u);
}

TEST(RealtimeTest, ReportStatistics) {
  Rig rig;
  LocationService svc(rig.sys.get(), single_backend());
  const auto report = svc.run(steady_schedule(8, 0.25, {11.0, 7.0}));
  ASSERT_GE(report.fixes.size(), 2u);
  EXPECT_GE(report.latency_percentile(95), report.latency_percentile(5));
  EXPECT_GT(report.fix_rate_hz(), 0.0);
  EXPECT_GE(report.median_error_m(), 0.0);
}

}  // namespace
}  // namespace arraytrack::service
