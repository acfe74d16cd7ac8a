// Multi-node federation determinism tests.
//
// The headline claim: a cluster of N virtual-clock nodes fed over
// authenticated links produces the *byte-identical* sorted fix set as
// a single LocationService run of the same records — across 1/2/4
// nodes, 1/2/8 workers, batch widths, scripted leave/join with session
// handoff, and elastic resizing. Sharding, link framing, handoff
// serialization and the front-tier merge must all be transparent to
// the fix stream for this to hold, which is what makes it the
// strongest single assertion in the tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/handoff.h"
#include "phy/wire.h"
#include "service/service.h"

namespace arraytrack::cluster {
namespace {

using geom::Vec2;
using service::LocationService;
using service::ServiceOptions;
using Record = LocationService::TimedWireRecord;

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
  cfg.server.localizer.grid_step_m = 0.25;
  auto sys = std::make_unique<core::System>(plan, cfg);
  sys->add_ap({1, 1}, deg2rad(45.0));
  sys->add_ap({17, 1}, deg2rad(135.0));
  sys->add_ap({9, 9.5}, deg2rad(-90.0));
  return sys;
}

const std::vector<Vec2>& client_sites() {
  static const std::vector<Vec2> sites = {
      {12.0, 6.0}, {5.0, 3.0}, {9.0, 7.0}, {14.5, 2.5}};
  return sites;
}

std::vector<Record> wire_schedule(core::System& sys, int clients, int frames,
                                  double gap_s) {
  phy::WireFormat wire;
  std::vector<Record> out;
  for (int i = 0; i < frames; ++i)
    for (int c = 0; c < clients; ++c) {
      const double t = 0.1 + gap_s * i + 0.011 * c;
      sys.transmit(c, client_sites()[std::size_t(c)], t);
      for (std::size_t a = 0; a < sys.num_aps(); ++a)
        out.push_back({t, a, wire.encode(sys.ap(int(a)).buffer().newest())});
    }
  return out;
}

ServiceOptions virtual_options(std::size_t workers) {
  ServiceOptions opt;
  opt.workers = workers;
  opt.virtual_clock = true;
  opt.virtual_cost_s = 0.02;
  opt.latency_slo_s = 0.5;
  return opt;
}

ClusterOptions cluster_options(std::size_t nodes, std::size_t workers) {
  ClusterOptions opt;
  opt.nodes = nodes;
  opt.service = virtual_options(workers);
  return opt;
}

/// Baseline: one service, every record, sorted report.
service::ServiceReport baseline(const geom::Floorplan* plan,
                                const std::vector<Record>& records,
                                ServiceOptions opt) {
  auto sys = make_system(plan);
  LocationService svc(sys.get(), opt);
  return svc.run_wire(records);
}

void expect_identical_fixes(const std::vector<delivery::Fix>& a,
                            const std::vector<delivery::Fix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client_id, b[i].client_id);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].frame_time_s, b[i].frame_time_s);
    // Exact equality is the contract: sharding, links and handoff must
    // not perturb a single bit of the pipeline's output.
    EXPECT_EQ(a[i].position.x, b[i].position.x);
    EXPECT_EQ(a[i].position.y, b[i].position.y);
    EXPECT_EQ(a[i].smoothed.x, b[i].smoothed.x);
    EXPECT_EQ(a[i].smoothed.y, b[i].smoothed.y);
    EXPECT_EQ(a[i].likelihood, b[i].likelihood);
  }
}

TEST(ClusterTest, ByteIdenticalFixesAcrossNodeAndWorkerCounts) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 4, 5, 0.2);
  const auto base = baseline(&plan, records, virtual_options(2));
  ASSERT_GT(base.fixes.size(), 0u);

  for (std::size_t nodes : {1u, 2u, 4u})
    for (std::size_t workers : {1u, 2u, 8u}) {
      Cluster cluster([&] { return make_system(&plan); },
                      cluster_options(nodes, workers));
      const auto rep = cluster.run(records);
      expect_identical_fixes(base.fixes, rep.fixes);
      EXPECT_EQ(rep.stats.unroutable, 0u) << nodes << "n/" << workers << "w";
      EXPECT_EQ(rep.links.auth_bad_tag, 0u);
      EXPECT_EQ(rep.links.delivered, rep.links.sent);
    }
}

TEST(ClusterTest, ByteIdenticalFixesAcrossBatchWidths) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 4, 5, 0.2);
  const auto base = baseline(&plan, records, virtual_options(2));

  for (std::size_t batch : {1u, 2u, 4u}) {
    auto opt = cluster_options(2, 2);
    opt.service.batch_max = batch;
    Cluster cluster([&] { return make_system(&plan); }, opt);
    expect_identical_fixes(base.fixes, cluster.run(records).fixes);
  }
}

TEST(ClusterTest, SteppedAndBatchedDrivesAgree) {
  // Feeding one capture event at a time (all APs' records of one
  // transmit) with a pump after each must equal one bulk run: the link
  // layer adds no order or timing sensitivity. Event granularity is
  // the service's own contract — records of one transmit landing in
  // one ingest batch is what groups them into one job.
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const std::size_t aps = capture->num_aps();
  const auto records = wire_schedule(*capture, 3, 4, 0.2);
  const auto base = baseline(&plan, records, virtual_options(2));

  Cluster cluster([&] { return make_system(&plan); }, cluster_options(2, 2));
  for (std::size_t i = 0; i < records.size(); i += aps) {
    cluster.ingest({records.begin() + std::ptrdiff_t(i),
                    records.begin() + std::ptrdiff_t(i + aps)});
    cluster.pump();
  }
  cluster.flush();
  auto fixes = cluster.drain_fixes();
  std::sort(fixes.begin(), fixes.end(),
            [](const delivery::Fix& a, const delivery::Fix& b) {
              if (a.frame_time_s != b.frame_time_s)
                return a.frame_time_s < b.frame_time_s;
              if (a.client_id != b.client_id) return a.client_id < b.client_id;
              return a.seq < b.seq;
            });
  expect_identical_fixes(base.fixes, fixes);
}

TEST(ClusterTest, ShardMapIsCanonicalOverMembership) {
  const auto plan = make_plan();
  Cluster cluster([&] { return make_system(&plan); }, cluster_options(4, 1));
  // Every client routes to an alive node, stably.
  std::map<int, std::size_t> before;
  for (int c = 0; c < 64; ++c) {
    before[c] = cluster.node_of(c);
    EXPECT_LT(before[c], 4u);
    EXPECT_EQ(cluster.node_of(c), before[c]);
  }
  // A leave only moves the departed node's clients; a re-join restores
  // the original map exactly (assignment depends on the alive set, not
  // on history).
  cluster.node_leave(2);
  for (int c = 0; c < 64; ++c) {
    if (before[c] != 2)
      EXPECT_EQ(cluster.node_of(c), before[c]) << "client " << c << " moved";
    else
      EXPECT_NE(cluster.node_of(c), 2u);
  }
  cluster.node_join(2);
  for (int c = 0; c < 64; ++c) EXPECT_EQ(cluster.node_of(c), before[c]);
}

TEST(ClusterTest, GracefulLeaveHandsSessionsOffBitExactly) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 4, 6, 0.2);
  const auto base = baseline(&plan, records, virtual_options(2));
  const std::size_t half = records.size() / 2;

  Cluster cluster([&] { return make_system(&plan); }, cluster_options(3, 2));
  cluster.ingest({records.begin(), records.begin() + std::ptrdiff_t(half)});
  cluster.flush();
  cluster.node_leave(1);
  EXPECT_EQ(cluster.alive_nodes(), 2u);
  cluster.ingest({records.begin() + std::ptrdiff_t(half), records.end()});
  ClusterReport rep = cluster.run({});

  // Sessions moved, none rejected, and the survivors continued every
  // tracker bit-for-bit — otherwise the smoothed fixes diverge.
  EXPECT_GT(cluster.stats().handoffs_sent, 0u);
  EXPECT_EQ(cluster.stats().handoffs_applied, cluster.stats().handoffs_sent);
  EXPECT_EQ(cluster.stats().handoffs_rejected, 0u);
  EXPECT_EQ(cluster.stats().sessions_lost, 0u);
  expect_identical_fixes(base.fixes, rep.fixes);
}

TEST(ClusterTest, JoinMigratesShardsBackBitExactly) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 4, 6, 0.2);
  const auto base = baseline(&plan, records, virtual_options(2));
  const std::size_t half = records.size() / 2;

  Cluster cluster([&] { return make_system(&plan); }, cluster_options(4, 2));
  cluster.node_leave(3);  // start with a 3-node fleet, slot 3 dark
  cluster.ingest({records.begin(), records.begin() + std::ptrdiff_t(half)});
  cluster.flush();
  cluster.node_join(3);  // scale out mid-run
  EXPECT_EQ(cluster.alive_nodes(), 4u);
  cluster.ingest({records.begin() + std::ptrdiff_t(half), records.end()});
  ClusterReport rep = cluster.run({});

  EXPECT_EQ(cluster.stats().handoffs_applied, cluster.stats().handoffs_sent);
  EXPECT_EQ(cluster.stats().handoffs_rejected, 0u);
  expect_identical_fixes(base.fixes, rep.fixes);
}

// A handoff from a node serving more APs than the receiver carries a
// history wider than the receiver's FrameGroup; installing it would
// let the wire drain write past the group. The receiver refuses the
// state and the cluster counts it as rejected, then serves the client
// from a fresh session.
TEST(ClusterTest, HandoffWiderThanReceiverIsRejected) {
  const auto plan = make_plan();
  auto four_aps = [&] {
    auto sys = make_system(&plan);
    sys->add_ap({1, 9}, deg2rad(-45.0));
    return sys;
  };
  auto capture = four_aps();
  const auto records = wire_schedule(*capture, 4, 6, 0.2);
  const std::size_t half = records.size() / 2;

  int built = 0;  // slot 0 gets the extra AP, every later slot does not
  Cluster cluster(
      [&] { return built++ == 0 ? four_aps() : make_system(&plan); },
      cluster_options(2, 1));
  cluster.ingest({records.begin(), records.begin() + std::ptrdiff_t(half)});
  cluster.flush();
  cluster.node_leave(0);
  cluster.ingest({records.begin() + std::ptrdiff_t(half), records.end()});
  const ClusterReport rep = cluster.run({});

  EXPECT_GT(cluster.stats().handoffs_sent, 0u);
  EXPECT_EQ(cluster.stats().handoffs_rejected, cluster.stats().handoffs_sent);
  EXPECT_EQ(cluster.stats().handoffs_applied, 0u);
  EXPECT_GT(rep.fixes.size(), 0u);
}

// deserialize_session must refuse subspace-tracker states whose shapes
// disagree with their own m / k: SubspaceTracker::import_state installs
// them verbatim and the next tracked update indexes by m and k.
TEST(ClusterTest, HandoffRejectsInconsistentTrackerShapes) {
  const auto plan = make_plan();
  auto sys = make_system(&plan);
  const auto records = wire_schedule(*sys, 1, 4, 0.2);
  LocationService svc(sys.get(), virtual_options(1));
  svc.run_wire(records);
  const auto st = svc.export_session(0);
  ASSERT_TRUE(st.has_value());
  ASSERT_FALSE(st->subspace.empty());
  const linalg::SubspaceTrackerState& good = st->subspace.front();
  ASSERT_GT(good.k, 0u);
  ASSERT_TRUE(deserialize_session(serialize_session(*st)).has_value());

  using Mutation = void (*)(linalg::SubspaceTrackerState&);
  const std::pair<const char*, Mutation> cases[] = {
      {"w longer than m*k",
       [](linalg::SubspaceTrackerState& t) { t.w.emplace_back(1.0, 0.0); }},
      {"w shorter than m*k",
       [](linalg::SubspaceTrackerState& t) { t.w.pop_back(); }},
      {"k > m",
       [](linalg::SubspaceTrackerState& t) {
         t.k = t.basis.k = t.m + 1;
         t.w.resize(t.m * t.k);
         t.basis.re.resize(t.m * t.k);
         t.basis.im.resize(t.m * t.k);
       }},
      {"basis size != k*m",
       [](linalg::SubspaceTrackerState& t) {
         t.basis.re.push_back(0.0);
         t.basis.im.push_back(0.0);
       }},
      {"num_signals > k",
       [](linalg::SubspaceTrackerState& t) {
         t.basis.num_signals = t.basis.k + 1;
       }},
  };
  for (const auto& [what, mutate] : cases) {
    auto bad = *st;
    mutate(bad.subspace.front());
    EXPECT_FALSE(deserialize_session(serialize_session(bad)).has_value())
        << what;
  }
}

TEST(ClusterTest, ElasticNodesStillMatchFixedWidthNodes) {
  // Heavier load so the per-node autoscalers actually fire. Coalescing
  // under load depends on how clients share queues, so the byte-equal
  // reference is a fixed-width cluster of the *same topology*, not a
  // single service: elasticity on vs off must be invisible in the fix
  // stream.
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 4, 12, 0.05);

  auto opt = cluster_options(2, 1);
  opt.service.virtual_cost_s = 0.1;
  opt.service.latency_slo_s = 30.0;  // no shedding: complete sets
  opt.service.shards = 1;  // per-shard depth is the pressure signal
  Cluster fixed([&] { return make_system(&plan); }, opt);
  const auto base = fixed.run(records);
  ASSERT_GT(base.fixes.size(), 0u);

  opt.service.elastic.enabled = true;
  opt.service.elastic.min_workers = 1;
  opt.service.elastic.max_workers = 4;
  opt.service.elastic.eval_period_s = 0.25;
  opt.service.elastic.grow_depth = 1.5;
  opt.service.elastic.hysteresis = 2;
  Cluster cluster([&] { return make_system(&plan); }, opt);
  const auto rep = cluster.run(records);

  std::size_t resizes = 0;
  for (std::size_t n = 0; n < cluster.num_slots(); ++n)
    resizes += cluster.node_service(n)->elastic_log().size();
  EXPECT_GT(resizes, 0u) << "load never tripped a node's autoscaler";
  expect_identical_fixes(base.fixes, rep.fixes);
}

TEST(ClusterTest, UnroutableRecordsAreCountedAndDropped) {
  const auto plan = make_plan();
  Cluster cluster([&] { return make_system(&plan); }, cluster_options(2, 1));
  cluster.ingest({{0.1, 0, {0xde, 0xad, 0xbe, 0xef}}});  // no readable header
  cluster.flush();
  EXPECT_EQ(cluster.stats().records_in, 1u);
  EXPECT_EQ(cluster.stats().unroutable, 1u);
  EXPECT_EQ(cluster.total_link_stats().sent, 0u);
}

TEST(ClusterTest, StatsJsonCarriesClusterAndNodeCounters) {
  const auto plan = make_plan();
  auto capture = make_system(&plan);
  const auto records = wire_schedule(*capture, 2, 2, 0.2);
  Cluster cluster([&] { return make_system(&plan); }, cluster_options(2, 1));
  cluster.run(records);
  const std::string json = cluster.stats_json();
  EXPECT_NE(json.find("\"records_in\": "), std::string::npos);
  EXPECT_NE(json.find("\"link_delivered\": "), std::string::npos);
  EXPECT_NE(json.find("\"node_services\": ["), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace arraytrack::cluster
