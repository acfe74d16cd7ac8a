#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
const std::int64_t kEpochNs = mono_ns();
}  // namespace

double wall_now() { return double(mono_ns() - kEpochNs) * 1e-9; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(q, 0.0, 1.0) * double(v.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - double(lo);
  return (1.0 - frac) * v[lo] + frac * v[hi];
}

std::vector<Arrival> poisson_arrivals(int clients, double rate_hz,
                                      double duration_s,
                                      std::mt19937_64& rng) {
  std::vector<Arrival> out;
  if (clients <= 0 || rate_hz <= 0.0) return out;
  std::exponential_distribution<double> gap(rate_hz);
  for (int c = 0; c < clients; ++c)
    for (double t = gap(rng); t < duration_s; t += gap(rng))
      out.push_back({t, c});
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.t_syn != b.t_syn ? a.t_syn < b.t_syn : a.client < b.client;
  });
  return out;
}

std::size_t GroupLedger::add(int client, double t_syn, double due_s) {
  const std::size_t id = groups_.size();
  groups_.push_back({client, t_syn, due_s, 0});
  clients_[client].pending.push_back(id);
  return id;
}

GroupLedger::Resolution GroupLedger::on_fix(int client, double frame_time_s,
                                            std::uint64_t seq, double recv_s) {
  Resolution res;
  Client& cl = clients_[client];
  // Jobs of one client get consecutive seqs from 0; every seq skipped
  // since the previous received fix is a job that ended without one.
  std::uint64_t skipped = 0;
  if (cl.have_seq && seq <= cl.last_seq) {
    ++seq_regressions_;
  } else {
    skipped = cl.have_seq ? seq - cl.last_seq - 1 : seq;
    cl.have_seq = true;
    cl.last_seq = seq;
  }
  skipped_jobs_ += skipped;

  std::size_t earlier = 0;
  while (!cl.pending.empty() &&
         groups_[cl.pending.front()].t_syn < frame_time_s) {
    Group& g = groups_[cl.pending.front()];
    cl.pending.pop_front();
    if (earlier < skipped) {
      g.state = 3;
      ++lost_;
    } else {
      g.state = 2;
      ++coalesced_;
    }
    ++earlier;
  }
  res.resolved = earlier;
  if (!cl.pending.empty() &&
      groups_[cl.pending.front()].t_syn == frame_time_s) {
    res.matched = true;
    res.group = cl.pending.front();
    cl.pending.pop_front();
    Group& g = groups_[res.group];
    g.state = 1;
    ++fixed_;
    res.latency_s = recv_s - g.due_s;
    ++res.resolved;
  } else {
    ++unmatched_;
  }
  return res;
}

void GroupLedger::finish() {
  for (auto& [id, cl] : clients_) {
    for (std::size_t g : cl.pending) {
      groups_[g].state = 3;
      ++lost_;
    }
    cl.pending.clear();
  }
}

int SpanRecorder::begin(const char* name, int parent, std::int64_t job) {
  if (!enabled_) return -1;
  spans_.push_back({name, mono_ns(), 0, parent, job});
  return int(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  if (id >= 0) spans_[std::size_t(id)].end_ns = mono_ns();
}

int SpanRecorder::add(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent, std::int64_t job) {
  spans_.push_back({name, start_ns, end_ns, parent, job});
  return int(spans_.size() - 1);
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const auto& s : spans_)
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"job\": %lld}\n",
                 s.name, (long long)s.start_ns, (long long)s.end_ns, s.parent,
                 (long long)s.job);
  return std::fclose(f) == 0;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0 && std::size_t(spans[i].parent) < spans.size())
      children[std::size_t(spans[i].parent)].push_back(i);

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = double(s.end_ns - s.start_ns - covered);
  }
  return self;
}

Rollup rollup(const std::vector<Span>& spans, const std::string& root) {
  Rollup r;
  const auto self = self_times_ns(spans);
  double root_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = double(s.end_ns - s.start_ns);
    StageStat& st = r.stages[s.name];
    ++st.count;
    st.total_ns += dur;
    st.self_ns += self[i];
    st.durations_ns.push_back(dur);
    if (root == s.name) {
      ++r.roots;
      r.root_ns += dur;
      root_self += self[i];
    }
  }
  r.unattributed_pct = r.root_ns > 0.0 ? 100.0 * root_self / r.root_ns : 0.0;
  return r;
}

}  // namespace perfbench
