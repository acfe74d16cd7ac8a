#include "cluster/cluster.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "cluster/handoff.h"
#include "phy/wire.h"

namespace arraytrack::cluster {

namespace {

/// Keys are a deployment concern; the default only keeps the signing
/// path honest when the caller does not care about key management.
std::vector<std::uint8_t> default_key() {
  const char* k = "arraytrack-cluster-default-key";
  return std::vector<std::uint8_t>(k, k + 30);
}

void json_u64(std::string& out, const char* key, std::uint64_t v,
              bool& first) {
  out += first ? "\"" : ", \"";
  out += key;
  out += "\": ";
  out += std::to_string(v);
  first = false;
}

}  // namespace

Cluster::Cluster(SystemFactory factory, ClusterOptions opt)
    : factory_(std::move(factory)), opt_(std::move(opt)), bus_(opt_.delivery) {
  opt_.nodes = std::max<std::size_t>(1, opt_.nodes);
  opt_.cluster_shards = std::max<std::size_t>(1, opt_.cluster_shards);
  if (opt_.key.empty()) opt_.key = default_key();
  slots_.resize(opt_.nodes);
  for (std::size_t i = 0; i < slots_.size(); ++i) make_slot(i);
  recompute_shard_map();
}

Cluster::~Cluster() = default;

Cluster::Slot& Cluster::make_slot(std::size_t slot) {
  Slot& s = slots_[slot];
  s.system = factory_();
  if (!s.system) throw std::runtime_error("cluster: factory returned null");
  s.service =
      std::make_unique<service::LocationService>(s.system.get(), opt_.service);
  FaultPlan plan = opt_.faults;
  plan.seed = opt_.faults.seed + slot;  // independent per-link streams
  s.link = std::make_unique<Link>(opt_.key, plan);
  s.alive = true;
  return s;
}

std::size_t Cluster::alive_nodes() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.alive ? 1 : 0;
  return n;
}

bool Cluster::node_alive(std::size_t slot) const {
  return slot < slots_.size() && slots_[slot].alive;
}

service::LocationService* Cluster::node_service(std::size_t slot) {
  return node_alive(slot) ? slots_[slot].service.get() : nullptr;
}

const LinkStats& Cluster::link_stats(std::size_t slot) const {
  return slots_.at(slot).link->stats();
}

LinkStats Cluster::total_link_stats() const {
  LinkStats t;
  for (const auto& s : slots_) {
    if (!s.link) continue;
    const LinkStats& l = s.link->stats();
    t.sent += l.sent;
    t.delivered += l.delivered;
    t.fault_dropped += l.fault_dropped;
    t.fault_duplicated += l.fault_duplicated;
    t.fault_reordered += l.fault_reordered;
    t.fault_corrupted += l.fault_corrupted;
    t.fault_truncated += l.fault_truncated;
    t.auth_bad_tag += l.auth_bad_tag;
    t.auth_replayed += l.auth_replayed;
    t.seq_gaps += l.seq_gaps;
    t.resync_bytes += l.resync_bytes;
    t.lost_on_reset += l.lost_on_reset;
  }
  return t;
}

std::size_t Cluster::shard_of(int client_id) const {
  return std::size_t(std::uint32_t(client_id) * 2654435761u) %
         opt_.cluster_shards;
}

std::size_t Cluster::node_of(int client_id) const {
  return shard_map_[shard_of(client_id)];
}

namespace {

/// splitmix64 finalizer: the (shard, slot) weight for rendezvous
/// hashing.
std::uint64_t hrw_weight(std::uint64_t shard, std::uint64_t slot) {
  std::uint64_t z = shard * 0x9e3779b97f4a7c15ull + slot + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void Cluster::recompute_shard_map() {
  // Canonical assignment by rendezvous (highest-random-weight) hashing:
  // shard s belongs to the alive slot with the largest hrw_weight(s,
  // slot). Depends only on the alive set — every front-tier replica
  // would agree, a re-join restores the exact pre-leave map — and it is
  // minimally disruptive: a membership change moves only the shards of
  // the slot that left or joined, never shards between survivors (a
  // survivor's winning weight is unaffected by other slots
  // disappearing or appearing). node_leave/node_join lean on that: they
  // migrate sessions touching the changed slot only.
  if (alive_nodes() == 0) throw std::runtime_error("cluster: no nodes alive");
  shard_map_.resize(opt_.cluster_shards);
  for (std::size_t s = 0; s < opt_.cluster_shards; ++s) {
    std::uint64_t best = 0;
    bool first = true;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].alive) continue;
      const std::uint64_t w = hrw_weight(s, i);
      if (first || w > best) {
        shard_map_[s] = i;
        best = w;
        first = false;
      }
    }
  }
}

void Cluster::ingest(
    const std::vector<service::LocationService::TimedWireRecord>& records) {
  for (const auto& rec : records) {
    ++stats_.records_in;
    const auto client =
        phy::WireFormat::peek_client(rec.bytes.data(), rec.bytes.size());
    if (!client || *client < 0) {
      // No trustworthy routing key: counted and dropped here rather
      // than burdening an arbitrary node with undecodable bytes.
      ++stats_.unroutable;
      continue;
    }
    Envelope env;
    env.type = EnvelopeType::kData;
    env.time_s = rec.time_s;
    env.ap_index = std::uint32_t(rec.ap_index);
    env.payload = rec.bytes;
    slots_[node_of(*client)].link->send(env);
  }
}

void Cluster::deliver_to_node(std::size_t slot) {
  Slot& s = slots_[slot];
  std::vector<Envelope> envs = s.link->receive();
  if (envs.empty()) return;
  std::vector<service::LocationService::TimedWireRecord> batch;
  auto flush_batch = [&] {
    if (batch.empty()) return;
    s.service->ingest_wire(batch);
    batch.clear();
  };
  for (Envelope& env : envs) {
    if (env.type == EnvelopeType::kData) {
      batch.push_back({env.time_s, env.ap_index, std::move(env.payload)});
      continue;
    }
    // A handoff is a barrier: records for the migrated client that were
    // sent after it must be ingested after the import.
    flush_batch();
    const auto rec =
        phy::decode_handoff(env.payload.data(), env.payload.size());
    if (!rec) {
      ++stats_.handoffs_rejected;
      continue;
    }
    const auto state = deserialize_session(rec->payload);
    if (!state || state->client_id != rec->client_id ||
        !s.service->import_session(*state)) {
      ++stats_.handoffs_rejected;
      continue;
    }
    ++stats_.handoffs_applied;
  }
  flush_batch();
}

void Cluster::drain_node_fixes(std::size_t slot) {
  Slot& s = slots_[slot];
  for (const auto& fix : s.service->bus().drain_retained()) {
    auto [it, fresh] = publish_cursor_.try_emplace(
        fix.client_id, -std::numeric_limits<double>::infinity());
    if (!fresh && fix.frame_time_s <= it->second) {
      // Already published a fix at or past this frame time for this
      // client (e.g. a session rewound by a replayed handoff): exactly-
      // once delivery wins over re-emission.
      ++stats_.fixes_deduped;
      continue;
    }
    it->second = fix.frame_time_s;
    ++stats_.fixes_out;
    bus_.publish(fix);
  }
}

void Cluster::pump() {
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].alive) deliver_to_node(i);
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].alive) drain_node_fixes(i);
}

void Cluster::flush() {
  // Pump until a pass delivers nothing. (Not until the pipes are
  // byte-empty: a fault-truncated tail frame never completes and would
  // stall that condition forever.)
  for (;;) {
    const std::uint64_t before = total_link_stats().delivered;
    pump();
    if (total_link_stats().delivered == before) break;
  }
  for (auto& s : slots_)
    if (s.alive) s.service->flush();
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].alive) drain_node_fixes(i);
}

std::vector<delivery::Fix> Cluster::drain_fixes() {
  return bus_.drain_retained();
}

ClusterReport Cluster::run(
    const std::vector<service::LocationService::TimedWireRecord>& records) {
  ingest(records);
  flush();
  ClusterReport rep;
  rep.fixes = drain_fixes();
  std::sort(rep.fixes.begin(), rep.fixes.end(),
            [](const delivery::Fix& a, const delivery::Fix& b) {
              if (a.frame_time_s != b.frame_time_s)
                return a.frame_time_s < b.frame_time_s;
              if (a.client_id != b.client_id) return a.client_id < b.client_id;
              return a.seq < b.seq;
            });
  rep.duration_s =
      records.empty() ? 0.0 : records.back().time_s - records.front().time_s;
  rep.stats = stats_;
  rep.links = total_link_stats();
  return rep;
}

void Cluster::send_handoff(std::size_t from, std::size_t to, int client) {
  auto state = slots_[from].service->export_session(client);
  if (!state) return;  // no session or still busy; nothing to move
  phy::HandoffRecord rec;
  rec.client_id = client;
  rec.seq = ++handoff_seq_;
  rec.payload = serialize_session(*state);
  Envelope env;
  env.type = EnvelopeType::kHandoff;
  env.payload = phy::encode_handoff(rec);
  slots_[to].link->send(env);
  ++stats_.handoffs_sent;
}

void Cluster::node_leave(std::size_t slot) {
  if (!node_alive(slot) || alive_nodes() <= 1)
    throw std::runtime_error("cluster: cannot retire slot");
  ++stats_.node_leaves;
  // Settle the departing node: deliver what its link holds, finish its
  // queued jobs, publish its fixes.
  pump();
  Slot& s = slots_[slot];
  s.service->flush();
  drain_node_fixes(slot);

  // Retire the slot from the map first so each session's new owner is
  // the post-departure one, then ship the sessions over that owner's
  // link (sorted for a deterministic handoff order).
  s.alive = false;
  recompute_shard_map();
  std::vector<int> clients = s.service->session_clients();
  for (int client : clients) send_handoff(slot, node_of(client), client);
  s.service.reset();
  s.system.reset();
  s.link->reset();
  // Deliver the handoffs now; routing already points at the new owners.
  pump();
}

void Cluster::node_join(std::size_t slot) {
  if (slot >= slots_.size() || slots_[slot].alive)
    throw std::runtime_error("cluster: slot not joinable");
  ++stats_.node_joins;
  // Donors must be settled before their sessions can be exported (a
  // queued job pins its session).
  flush();
  make_slot(slot);
  recompute_shard_map();
  // Migrate the sessions of every shard that changed owner (under
  // rendezvous hashing, exactly the shards the new node wins).
  for (std::size_t donor = 0; donor < slots_.size(); ++donor) {
    if (donor == slot || !slots_[donor].alive) continue;
    for (int client : slots_[donor].service->session_clients()) {
      const std::size_t owner = node_of(client);
      if (owner != donor) send_handoff(donor, owner, client);
    }
  }
  pump();
}

void Cluster::node_kill(std::size_t slot) {
  if (!node_alive(slot) || alive_nodes() <= 1)
    throw std::runtime_error("cluster: cannot kill slot");
  ++stats_.node_kills;
  Slot& s = slots_[slot];
  // No goodbye: sessions, queued jobs and buffered link traffic die
  // with the node. Fixes the node already committed to its bus are
  // published posthumously — they were real results.
  stats_.sessions_lost += s.service->session_clients().size();
  drain_node_fixes(slot);
  // Destruction completes in-flight jobs internally, but their fixes
  // land on a bus nobody drains again — from the cluster's view they
  // died with the node.
  s.service.reset();
  s.system.reset();
  s.link->reset();  // in-flight envelopes -> lost_on_reset
  s.alive = false;
  recompute_shard_map();
}

void Cluster::node_restart(std::size_t slot) {
  node_join(slot);
  --stats_.node_joins;
  ++stats_.node_restarts;
}

std::string Cluster::stats_json() const {
  std::string out = "{";
  bool first = true;
  json_u64(out, "nodes", slots_.size(), first);
  json_u64(out, "alive", alive_nodes(), first);
  json_u64(out, "cluster_shards", opt_.cluster_shards, first);
  json_u64(out, "records_in", stats_.records_in, first);
  json_u64(out, "unroutable", stats_.unroutable, first);
  json_u64(out, "fixes_out", stats_.fixes_out, first);
  json_u64(out, "fixes_deduped", stats_.fixes_deduped, first);
  json_u64(out, "handoffs_sent", stats_.handoffs_sent, first);
  json_u64(out, "handoffs_applied", stats_.handoffs_applied, first);
  json_u64(out, "handoffs_rejected", stats_.handoffs_rejected, first);
  json_u64(out, "sessions_lost", stats_.sessions_lost, first);
  json_u64(out, "node_joins", stats_.node_joins, first);
  json_u64(out, "node_leaves", stats_.node_leaves, first);
  json_u64(out, "node_kills", stats_.node_kills, first);
  json_u64(out, "node_restarts", stats_.node_restarts, first);
  const LinkStats l = total_link_stats();
  json_u64(out, "link_sent", l.sent, first);
  json_u64(out, "link_delivered", l.delivered, first);
  json_u64(out, "link_fault_dropped", l.fault_dropped, first);
  json_u64(out, "link_fault_duplicated", l.fault_duplicated, first);
  json_u64(out, "link_fault_reordered", l.fault_reordered, first);
  json_u64(out, "link_fault_corrupted", l.fault_corrupted, first);
  json_u64(out, "link_fault_truncated", l.fault_truncated, first);
  json_u64(out, "link_auth_bad_tag", l.auth_bad_tag, first);
  json_u64(out, "link_auth_replayed", l.auth_replayed, first);
  json_u64(out, "link_seq_gaps", l.seq_gaps, first);
  json_u64(out, "link_lost_on_reset", l.lost_on_reset, first);
  out += ", \"node_services\": [";
  bool first_node = true;
  for (const auto& s : slots_) {
    if (!first_node) out += ", ";
    first_node = false;
    out += s.alive ? s.service->stats_json() : "null";
  }
  out += "]}";
  return out;
}

}  // namespace arraytrack::cluster
