// Self-check of the benchmark harness (generator, accounting, span
// rollup) on hand-made inputs; run.py runs it before every measurement
// and refuses to report numbers when it fails.
#include <cmath>
#include <cstdio>
#include <random>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void test_quantile() {
  using perfbench::quantile;
  expect(quantile({}, 0.5) == 0.0, "quantile of an empty sample is 0");
  expect(quantile({3.0, 1.0, 2.0}, 0.5) == 2.0, "median of 1,2,3");
  expect(near(quantile({0.0, 10.0}, 0.99), 9.9, 1e-12), "p99 interpolates");
  expect(quantile({5.0}, 0.99) == 5.0, "single sample");
}

void test_poisson() {
  std::mt19937_64 a(7), b(7);
  const auto s1 = perfbench::poisson_arrivals(10, 50.0, 20.0, a);
  const auto s2 = perfbench::poisson_arrivals(10, 50.0, 20.0, b);
  expect(s1.size() == s2.size(), "same seed, same schedule length");
  bool same = s1.size() == s2.size(), sorted = true, in_range = true;
  for (std::size_t i = 0; same && i < s1.size(); ++i)
    same = s1[i].t_syn == s2[i].t_syn && s1[i].client == s2[i].client;
  std::vector<int> per(10, 0);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    if (i && s1[i].t_syn < s1[i - 1].t_syn) sorted = false;
    if (s1[i].t_syn < 0.0 || s1[i].t_syn >= 20.0) in_range = false;
    ++per[std::size_t(s1[i].client)];
  }
  expect(same, "same seed, same schedule");
  expect(sorted, "schedule sorted by time");
  expect(in_range, "arrivals inside the window");
  // 10 clients x 50 Hz x 20 s = 10000 expected; Poisson sd = 100.
  expect(near(double(s1.size()), 10000.0, 500.0), "aggregate rate");
  for (int n : per) expect(near(double(n), 1000.0, 160.0), "per-client rate");
}

void test_ledger() {
  perfbench::GroupLedger l;
  // Client 1: three groups, the first two coalesce into the third's job.
  l.add(1, 0.10, 1.0);
  l.add(1, 0.20, 2.0);
  const auto g3 = l.add(1, 0.30, 3.0);
  // Client 2: job 0 fixed, job 1 lost (seq skips to 2), job 2 fixed.
  const auto h1 = l.add(2, 0.10, 1.0);
  l.add(2, 0.20, 2.0);
  l.add(2, 0.30, 3.0);
  // Client 3: never answered.
  l.add(3, 0.10, 1.0);

  auto r = l.on_fix(1, 0.30, 0, 3.5);
  expect(r.matched && r.group == g3, "fix names its group");
  expect(near(r.latency_s, 0.5, 1e-12), "latency from the due time");
  expect(r.resolved == 3, "earlier groups resolve with the fix");
  r = l.on_fix(2, 0.10, 0, 1.25);
  expect(r.matched && r.group == h1 && r.resolved == 1, "client 2 first fix");
  r = l.on_fix(2, 0.30, 2, 3.25);
  expect(r.matched && r.resolved == 2, "client 2 after a skipped job");
  expect(l.skipped_jobs() == 1, "one skipped job");
  // A fix naming nothing pending, and a seq going backwards.
  r = l.on_fix(2, 0.30, 1, 4.0);
  expect(!r.matched, "duplicate fix matches nothing");
  l.finish();
  expect(l.groups() == 7, "groups counted");
  expect(l.fixed() == 3, "fixed");
  expect(l.coalesced() == 2, "coalesced");
  expect(l.lost() == 2, "lost: the skipped job's group and client 3");
  expect(l.pending() == 0, "nothing pending after finish");
  expect(l.fixed() + l.coalesced() + l.lost() == l.groups(),
         "every group in exactly one outcome");
  expect(l.unmatched_fixes() == 1, "unmatched fix counted");
  expect(l.seq_regressions() == 1, "seq regression counted");
}

void test_rollup() {
  perfbench::SpanRecorder rec;
  // job [0,100): a [10,40) with child c [20,30); b [50,90); gap = 20.
  const int job = rec.add("job", 0, 100, -1, 1);
  const int a = rec.add("a", 10, 40, job, 1);
  rec.add("c", 20, 30, a, 1);
  rec.add("b", 50, 90, job, 1);
  // A second job whose children overlap each other (union, not sum).
  const int job2 = rec.add("job", 200, 300, -1, 2);
  rec.add("b", 210, 260, job2, 2);
  rec.add("b", 240, 290, job2, 2);
  const auto self = perfbench::self_times_ns(rec.spans());
  expect(self[0] == 30.0, "job self = 100 - 30 - 40");
  expect(self[1] == 20.0, "a self = 30 - 10");
  expect(self[2] == 10.0, "leaf self = duration");
  expect(self[4] == 20.0, "overlapping children counted once");
  const auto r = perfbench::rollup(rec.spans(), "job");
  expect(r.roots == 2, "two roots");
  expect(near(r.unattributed_pct, 100.0 * 50.0 / 200.0, 1e-9), "unattributed share");
  expect(self[0] + self[1] + self[2] + self[3] == 100.0,
         "nested self times sum to the job span");
  expect(r.stages.at("b").count == 3, "per-name count");
  perfbench::SpanRecorder off(false);
  expect(off.begin("x") == -1 && off.spans().empty(), "disabled recorder");
}

}  // namespace

int main() {
  test_quantile();
  test_poisson();
  test_ledger();
  test_rollup();
  if (failures) return 1;
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
