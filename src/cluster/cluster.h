// Multi-node federation front tier.
//
// One LocationService scales to a worker pool; this layer scales to a
// fleet of them. A Cluster owns N backend node slots, each holding its
// own core::System (identically configured and seeded, so calibration
// and search grids agree) and its own service::LocationService, fed
// through an authenticated byte-stream link (link.h) carrying wire v1
// capture records and handoff records:
//
//   ingest(records) -> peek client id -> cluster shard (Knuth hash)
//     -> shard map -> node link (signed kData envelope)
//   pump() -> per node: link.receive() -> ingest_wire()
//          -> kHandoff envelopes -> deserialize -> import_session()
//          -> drain node fixes -> per-client dedupe -> front FixBus
//
// Membership. Shards are assigned canonically by rendezvous hashing —
// shard s belongs to the alive slot with the highest (s, slot) hash
// weight — so the assignment depends only on the alive set, never on
// the history of joins and leaves, and a membership change moves only
// the changed slot's shards, never shards between survivors. On a
// graceful leave (and for shards a join takes over), the affected
// sessions are exported, serialized (handoff.h) and shipped to their
// new owner over its link, so trackers continue bit-for-bit. A kill
// loses the node's sessions and whatever its link still buffered, all
// of it counted; re-heard clients then start fresh sessions — the
// convergence the fault tier asserts.
//
// Determinism. Each client's session lives wholly on one node, every
// node service runs under the virtual clock, and the front tier drives
// everything from one thread — so under light load the cluster's
// sorted fix set is byte-identical across 1/2/4 nodes, worker counts,
// batch widths, and scripted leave/join (faults off), matching a
// single-service run of the same records.
//
// No fix is published twice: the front tier keeps a per-client
// frame-time cursor and drops (and counts) anything at or behind it,
// which also defuses a replayed-then-rewound session double-emitting
// after a duplicated handoff.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/link.h"
#include "core/arraytrack.h"
#include "delivery/bus.h"
#include "service/service.h"

namespace arraytrack::cluster {

struct ClusterOptions {
  /// Backend node slots (fixed; membership toggles slots alive/dead).
  std::size_t nodes = 2;
  /// Cluster-level shard count for the client -> node map. More shards
  /// mean finer-grained handoff on membership change.
  std::size_t cluster_shards = 64;
  /// Per-node service configuration (virtual_clock recommended; the
  /// cluster inherits its determinism from the node services).
  service::ServiceOptions service;
  /// HMAC key for every link; a default key is installed when empty.
  std::vector<std::uint8_t> key;
  /// Fault plan applied to each front->node link (seed is offset by
  /// the slot index so the streams draw independently).
  FaultPlan faults;
  /// Front-tier fix bus configuration.
  delivery::BusOptions delivery;
};

struct ClusterStats {
  std::uint64_t records_in = 0;   ///< records offered to ingest()
  std::uint64_t unroutable = 0;   ///< no readable client id in the header
  std::uint64_t fixes_out = 0;    ///< published on the front bus
  std::uint64_t fixes_deduped = 0;  ///< dropped by the per-client cursor
  std::uint64_t handoffs_sent = 0;
  std::uint64_t handoffs_applied = 0;
  std::uint64_t handoffs_rejected = 0;  ///< bad record, payload or shape
  std::uint64_t sessions_lost = 0;      ///< sessions destroyed by a kill
  std::uint64_t node_joins = 0;
  std::uint64_t node_leaves = 0;
  std::uint64_t node_kills = 0;
  std::uint64_t node_restarts = 0;
};

struct ClusterReport {
  /// Sorted by (frame_time, client, seq), comparable across node and
  /// worker counts like ServiceReport::fixes.
  std::vector<delivery::Fix> fixes;
  double duration_s = 0.0;
  ClusterStats stats;
  /// Aggregated link-level accounting across every slot's link.
  LinkStats links;

  double fix_rate_hz() const {
    return duration_s > 0.0 ? double(fixes.size()) / duration_s : 0.0;
  }
};

class Cluster {
 public:
  /// Builds one backend System per node. Factories must produce
  /// identically configured and seeded systems — node-local calibration
  /// must agree or fixes diverge across shard placements.
  using SystemFactory = std::function<std::unique_ptr<core::System>()>;

  Cluster(SystemFactory factory, ClusterOptions opt);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterOptions& options() const { return opt_; }
  const ClusterStats& stats() const { return stats_; }
  std::size_t num_slots() const { return slots_.size(); }
  std::size_t alive_nodes() const;
  bool node_alive(std::size_t slot) const;
  /// The slot's service; nullptr while the slot is dead.
  service::LocationService* node_service(std::size_t slot);
  const LinkStats& link_stats(std::size_t slot) const;
  /// Sum of every slot's link counters.
  LinkStats total_link_stats() const;

  /// Front-tier fix bus: cluster-wide fixes, zones, history queries.
  delivery::FixBus& bus() { return bus_; }

  /// Cluster shard of a client (Knuth hash, like the in-service
  /// sharding) and its current owner slot.
  std::size_t shard_of(int client_id) const;
  std::size_t node_of(int client_id) const;

  /// Routes each record to its owner node's link by the client id
  /// peeked from the record header. Unroutable records are counted and
  /// dropped (never guessed at).
  void ingest(
      const std::vector<service::LocationService::TimedWireRecord>& records);

  /// Delivers buffered link traffic into every alive node (capture
  /// records to ingest_wire, handoffs to import_session) and drains
  /// node fixes through the dedupe cursor onto the front bus. Stepped
  /// and batched drives admit the same jobs under the virtual clock as
  /// long as steps land on capture-event boundaries (the records of
  /// one transmit must reach the node in one ingest batch to group
  /// into one job — the service's own wire-ingest contract).
  void pump();

  /// pump() until the links are quiet, then flush every node service
  /// and drain the remaining fixes.
  void flush();

  /// Removes and returns the front bus's retained fixes (publish
  /// order). flush() first for a complete set.
  std::vector<delivery::Fix> drain_fixes();

  /// ingest + flush + sorted report, the cluster analogue of
  /// LocationService::run_wire.
  ClusterReport run(
      const std::vector<service::LocationService::TimedWireRecord>& records);

  // ---- membership ----

  /// Graceful departure: flushes the slot, hands every session off to
  /// its new owner over that owner's link, retires the slot.
  void node_leave(std::size_t slot);
  /// Brings a dead slot (back) up with a fresh service and takes over
  /// its canonical shards, migrating their sessions from current
  /// owners via handoff.
  void node_join(std::size_t slot);
  /// Crash: the slot's sessions and buffered link traffic are lost
  /// (counted), no handoff. Surviving slots take over its shards.
  void node_kill(std::size_t slot);
  /// node_join for a previously killed slot (counted separately).
  void node_restart(std::size_t slot);

  /// Cluster counters plus per-slot link and service stats, one flat
  /// JSON object (for BENCH_cluster.json and the sim tool).
  std::string stats_json() const;

 private:
  struct Slot {
    std::unique_ptr<core::System> system;
    std::unique_ptr<service::LocationService> service;
    std::unique_ptr<Link> link;
    bool alive = false;
  };

  void recompute_shard_map();
  Slot& make_slot(std::size_t slot);
  /// Exports `client` from `from` and ships it to `to`'s link.
  void send_handoff(std::size_t from, std::size_t to, int client);
  void drain_node_fixes(std::size_t slot);
  void deliver_to_node(std::size_t slot);

  SystemFactory factory_;
  ClusterOptions opt_;
  std::vector<Slot> slots_;
  /// cluster shard -> alive slot index.
  std::vector<std::size_t> shard_map_;
  std::uint64_t handoff_seq_ = 0;
  /// Per-client newest published frame time (the no-double-publish
  /// cursor).
  std::map<int, double> publish_cursor_;
  delivery::FixBus bus_;
  ClusterStats stats_;
};

}  // namespace arraytrack::cluster
