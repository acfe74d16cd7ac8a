// Engine-free pieces of the fix-serving benchmark: arrival schedules on
// the workload's synthetic frame clock, the arrival-group ledger that
// accounts every group as fixed, coalesced or failed, the in-memory
// span recorder with its self-time rollup, and sample quantiles.
//
// Nothing here links the ArrayTrack engine, so perfbench_selftest can
// check the harness on hand-made inputs before a run trusts it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the span timestamps).
std::int64_t mono_ns();
/// Seconds on the benchmark's wall clock (steady, process-wide epoch).
double wall_now();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// One arrival group: the records every AP captured of one client frame.
struct Arrival {
  double t_syn = 0.0;  ///< on the workload's synthetic frame clock
  int client = 0;
};

/// Merged per-client Poisson processes on the synthetic clock:
/// `clients` senders at `rate_hz` each over [0, duration_s), sorted by
/// time. The same rng state gives the same schedule.
std::vector<Arrival> poisson_arrivals(int clients, double rate_hz,
                                      double duration_s, std::mt19937_64& rng);

/// Kinds of hostile record the wire-storm workload injects.
enum class Hostile : int { kDuplicate = 0, kReplay, kCorrupt, kTruncate };
constexpr int kHostileKinds = 4;

/// Accounts every arrival group the generator sent. A fix for client c
/// naming frame time T resolves c's pending group at T as fixed; the
/// client's earlier pending groups were folded into that job
/// (coalesced) unless the fix's sequence number skips jobs, in which
/// case one earlier group per skipped job is counted lost (each lost
/// job held at least its newest group; which of the rest were in it is
/// not observable from outside, so this is the lower bound). Groups
/// still pending at finish() are lost as well.
class GroupLedger {
 public:
  struct Group {
    int client = 0;
    double t_syn = 0.0;
    double due_s = 0.0;  ///< wall time latency is measured from
    int state = 0;       ///< 0 pending, 1 fixed, 2 coalesced, 3 lost
  };
  struct Resolution {
    bool matched = false;        ///< the fix named a pending group
    std::size_t group = 0;       ///< that group's id when matched
    double latency_s = 0.0;      ///< recv - due of that group
    std::size_t resolved = 0;    ///< groups this fix took out of pending
  };

  /// Registers a group; a client's groups must come in increasing
  /// synthetic time. Returns the group id (dense from 0).
  std::size_t add(int client, double t_syn, double due_s);

  /// Folds one received fix (client, frame time, job seq) at wall `recv_s`.
  Resolution on_fix(int client, double frame_time_s, std::uint64_t seq,
                    double recv_s);

  /// Marks every still-pending group lost.
  void finish();

  const Group& group(std::size_t id) const { return groups_[id]; }
  std::size_t groups() const { return groups_.size(); }
  std::size_t fixed() const { return fixed_; }
  std::size_t coalesced() const { return coalesced_; }
  std::size_t lost() const { return lost_; }
  std::size_t pending() const {
    return groups_.size() - fixed_ - coalesced_ - lost_;
  }
  /// Jobs the received seqs skip over, summed over clients.
  std::uint64_t skipped_jobs() const { return skipped_jobs_; }
  /// Fixes whose (client, frame time) matched no pending group.
  std::size_t unmatched_fixes() const { return unmatched_; }
  /// Fixes whose seq did not exceed the client's previous fix seq.
  std::size_t seq_regressions() const { return seq_regressions_; }

 private:
  struct Client {
    std::deque<std::size_t> pending;
    bool have_seq = false;
    std::uint64_t last_seq = 0;
  };
  std::vector<Group> groups_;
  std::unordered_map<int, Client> clients_;
  std::size_t fixed_ = 0, coalesced_ = 0, lost_ = 0, unmatched_ = 0,
              seq_regressions_ = 0;
  std::uint64_t skipped_jobs_ = 0;
};

/// One traced interval. Names are string literals owned by the caller.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;       ///< index of the enclosing span, -1 for a root
  std::int64_t job = -1; ///< job id shared by a request's spans
};

/// Spans kept in memory for the whole run and written out at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Opens a span now; returns its index (-1 when disabled).
  int begin(const char* name, int parent = -1, std::int64_t job = -1);
  void end(int id);
  /// Appends an already measured interval (for tests and replays).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::int64_t job = -1);
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line: name, start_ns, end_ns, parent, job.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span over one call.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, int parent = -1,
         std::int64_t job = -1)
      : rec_(rec), id_(rec.begin(name, parent, job)) {}
  ~Scoped() { rec_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Per-name aggregate of a span set.
struct StageStat {
  std::size_t count = 0;
  double total_ns = 0.0;  ///< summed durations
  double self_ns = 0.0;   ///< summed self times
  std::vector<double> durations_ns;
};

/// Self time of each span: its duration minus the union of its
/// children's intervals clipped to it.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Aggregates spans by name. `root` names the per-job root span; the
/// rollup's `unattributed_pct` is the roots' summed self time over
/// their summed duration — the part of a job no stage span covers.
struct Rollup {
  std::map<std::string, StageStat> stages;
  std::size_t roots = 0;
  double root_ns = 0.0;
  double unattributed_pct = 0.0;
};
Rollup rollup(const std::vector<Span>& spans, const std::string& root);

}  // namespace perfbench
