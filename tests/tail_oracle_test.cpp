// Bitwise oracles for the spectrum tail after MUSIC: geometry
// weighting, per-peak symmetry removal and multipath suppression, plus
// the max_value, find_peaks and scale_lobe scans they rest on. Each is
// checked against the plain formulation it replaced, kept here as the
// reference: W(theta) evaluated per bin on every call, a fresh
// steering vector and CMatrix/CVector arithmetic per symmetry probe,
// %-indexed neighbour scans, and peak lists re-scanned inside the
// suppression pairing loop. The production code tabulates W once per
// AP, probes from scratch buffers, and computes each peak list once;
// none of that may change a bit. Inputs are office-testbed sharp and
// blurred spectra at every SIMD level, plus hand-made edge cases (an
// all-zero spectrum, a group in which nothing pairs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "aoa/covariance.h"
#include "aoa/spectrum.h"
#include "aoa/symmetry.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "core/suppression.h"
#include "testbed/runner.h"

namespace arraytrack {
namespace {

using aoa::AoaSpectrum;
using aoa::Peak;
using core::simd::ForcedLevel;
using core::simd::Level;

std::vector<Level> testable_levels() {
  std::vector<Level> out;
  for (Level lvl : {Level::kScalar, Level::kAvx2})
    if (core::simd::clamp_to_hardware(lvl) == lvl) out.push_back(lvl);
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

// ---------------------------------------------------------------------
// The references: the tail as it was written before it was tabulated.
// ---------------------------------------------------------------------
namespace ref {

double max_value(const AoaSpectrum& s) {
  const auto& p = s.values();
  return p.empty() ? 0.0 : *std::max_element(p.begin(), p.end());
}

void normalize(AoaSpectrum& s) {
  const double m = max_value(s);
  if (m <= 0.0) return;
  for (std::size_t i = 0; i < s.bins(); ++i) s[i] /= m;
}

std::vector<Peak> find_peaks(const AoaSpectrum& s, double min_fraction) {
  std::vector<Peak> peaks;
  const std::size_t n = s.bins();
  if (n < 3) return peaks;
  const double floor_level = min_fraction * max_value(s);
  for (std::size_t i = 0; i < n; ++i) {
    const double prev = s[(i + n - 1) % n];
    const double next = s[(i + 1) % n];
    if (s[i] > prev && s[i] >= next && s[i] >= floor_level && s[i] > 0.0)
      peaks.push_back({s.bin_bearing(i), s[i], i});
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.power > b.power; });
  return peaks;
}

void scale_lobe(AoaSpectrum& s, double bearing_rad, double factor) {
  const std::size_t n = s.bins();
  if (n < 3) return;
  std::size_t top = s.bearing_bin(bearing_rad);
  for (std::size_t guard = 0; guard < n; ++guard) {
    const std::size_t up = (top + 1) % n;
    const std::size_t down = (top + n - 1) % n;
    if (s[up] > s[top])
      top = up;
    else if (s[down] > s[top])
      top = down;
    else
      break;
  }
  std::size_t lo = top;
  for (std::size_t guard = 0; guard < n; ++guard) {
    const std::size_t next = (lo + n - 1) % n;
    if (s[next] <= s[lo] && next != top)
      lo = next;
    else
      break;
  }
  std::size_t hi = top;
  for (std::size_t guard = 0; guard < n; ++guard) {
    const std::size_t next = (hi + 1) % n;
    if (s[next] <= s[hi] && next != top)
      hi = next;
    else
      break;
  }
  for (std::size_t i = lo;; i = (i + 1) % n) {
    s[i] *= factor;
    if (i == hi) break;
  }
}

void apply_geometry_weighting(AoaSpectrum& s, double soft_floor) {
  const double blend = soft_floor * max_value(s);
  for (std::size_t i = 0; i < s.bins(); ++i) {
    const double theta = s.bin_bearing(i);
    double from_axis = theta <= kPi ? theta : kTwoPi - theta;
    const double lo = deg2rad(15.0);
    const double hi = deg2rad(165.0);
    if (from_axis <= lo || from_axis >= hi) {
      const double w = std::abs(std::sin(from_axis));
      s[i] = w * s[i] + (1.0 - w) * blend;
    }
  }
}

/// SymmetryResolver as it stood: a fresh steering vector per probe,
/// normalized and pushed through CMatrix * CVector and CVector::dot.
struct Resolver {
  const array::PlacedArray* array;
  std::vector<std::size_t> elements;
  double lambda;
  aoa::SymmetryOptions opt;

  double probe_power(const linalg::CMatrix& r, double theta) const {
    const auto a = array->steering_subset(theta, lambda, elements).normalized();
    return linalg::quadratic_form_real(a, r);
  }

  std::size_t resolve_per_peak(const linalg::CMatrix& r,
                               AoaSpectrum* spec) const {
    const auto peaks = find_peaks(*spec, opt.peak_floor);
    std::size_t resolved = 0;
    std::vector<bool> done(peaks.size(), false);
    for (std::size_t i = 0; i < peaks.size(); ++i) {
      if (done[i]) continue;
      const double theta = peaks[i].bearing_rad;
      if (std::sin(theta) == 0.0) continue;
      const double mirror = wrap_2pi(-theta);
      std::ptrdiff_t partner = -1;
      for (std::size_t j = i + 1; j < peaks.size(); ++j) {
        if (!done[j] && aoa::bearing_distance(peaks[j].bearing_rad, mirror) <
                            deg2rad(3.0)) {
          partner = std::ptrdiff_t(j);
          break;
        }
      }
      done[i] = true;
      if (partner >= 0) done[std::size_t(partner)] = true;
      const double p_here = probe_power(r, theta);
      const double p_mirror = probe_power(r, mirror);
      if (p_here >= opt.min_confidence_ratio * p_mirror) {
        scale_lobe(*spec, mirror, opt.suppression);
        ++resolved;
      } else if (p_mirror >= opt.min_confidence_ratio * p_here) {
        scale_lobe(*spec, theta, opt.suppression);
        ++resolved;
      }
    }
    return resolved;
  }
};

/// suppress_multipath with paired_power re-scanning every other
/// spectrum's peaks inside its per-peak loop.
double paired_power(const std::vector<AoaSpectrum>& group,
                    std::size_t candidate, std::size_t use,
                    const core::SuppressionOptions& opt,
                    std::vector<bool>* paired_out = nullptr) {
  const auto peaks = find_peaks(group[candidate], opt.peak_floor);
  if (paired_out) paired_out->assign(peaks.size(), false);
  double total = 0.0;
  for (std::size_t p = 0; p < peaks.size(); ++p) {
    bool everywhere = true;
    for (std::size_t i = 0; i < use && everywhere; ++i) {
      if (i == candidate) continue;
      bool found = false;
      for (const auto& other : find_peaks(group[i], opt.peak_floor)) {
        if (aoa::bearing_distance(peaks[p].bearing_rad, other.bearing_rad) <=
            opt.match_tolerance_rad) {
          found = true;
          break;
        }
      }
      everywhere = found;
    }
    if (everywhere) {
      total += peaks[p].power;
      if (paired_out) (*paired_out)[p] = true;
    }
  }
  return total;
}

AoaSpectrum suppress_multipath(const std::vector<AoaSpectrum>& group,
                               const core::SuppressionOptions& opt) {
  if (group.size() < opt.min_group) return group.front();
  const std::size_t use =
      std::min(group.size(), std::max(opt.max_group, opt.min_group));
  std::size_t best = 0;
  double best_power = -1.0;
  for (std::size_t c = 0; c < use; ++c) {
    const double p = paired_power(group, c, use, opt);
    if (p > best_power) {
      best_power = p;
      best = c;
    }
  }
  AoaSpectrum primary = group[best];
  const auto peaks = find_peaks(primary, opt.peak_floor);
  std::vector<bool> paired;
  paired_power(group, best, use, opt, &paired);
  bool any = false;
  for (bool b : paired) any |= b;
  if (!any) return primary;
  for (std::size_t p = 0; p < peaks.size(); ++p)
    if (!paired[p]) scale_lobe(primary, peaks[p].bearing_rad, 0.0);
  return primary;
}

}  // namespace ref

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Office-testbed frames from a few clients (three frames each, 30 ms
/// apart) at every AP, under the SIMD level active at construction.
struct Testbed {
  Testbed() : tb(testbed::OfficeTestbed::standard()) {
    runner = std::make_unique<testbed::ExperimentRunner>(
        &tb, testbed::RunnerConfig{});
    for (int c : {0, 12, 23, 37})
      for (std::size_t f = 0; f < 3; ++f)
        runner->system().transmit(c, tb.clients[std::size_t(c)],
                                  double(c) + double(f) * 0.03);
  }
  core::System& system() { return runner->system(); }

  testbed::OfficeTestbed tb;
  std::unique_ptr<testbed::ExperimentRunner> runner;
};

/// Sharp and finished (blurred, normalized) spectra of every captured
/// frame, three consecutive frames of one AP per group.
struct Spectra {
  std::vector<AoaSpectrum> sharp, finished;
};

Spectra testbed_spectra(Testbed& t) {
  Spectra out;
  for (std::size_t a = 0; a < t.system().num_aps(); ++a) {
    const auto& ap = t.system().ap(int(a));
    const core::ApProcessor proc(&ap);
    for (std::size_t f = 0; f < ap.buffer().size(); ++f) {
      out.sharp.push_back(proc.process_sharp(ap.buffer().at(f)));
      out.finished.push_back(out.sharp.back());
      proc.finish_spectrum(out.finished.back());
    }
  }
  return out;
}

AoaSpectrum bump_at(double bearing_rad, std::size_t bins = 720) {
  AoaSpectrum s(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double d = aoa::bearing_distance(s.bin_bearing(i), bearing_rad);
    s[i] = std::exp(-0.5 * (d / deg2rad(4.0)) * (d / deg2rad(4.0)));
  }
  return s;
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

TEST(TailOracleTest, ScansMatchReference) {
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    Testbed t;
    const Spectra sp = testbed_spectra(t);
    std::vector<AoaSpectrum> inputs = sp.sharp;
    inputs.insert(inputs.end(), sp.finished.begin(), sp.finished.end());
    inputs.push_back(AoaSpectrum(720));  // all zero
    inputs.push_back(bump_at(deg2rad(0.2)));  // peak on the wrap
    inputs.push_back(AoaSpectrum(std::vector<double>{0.0, -0.0, 0.0, -0.0}));
    inputs.push_back(AoaSpectrum(std::vector<double>{-0.0, 0.0, 1.0, 1.0}));
    // A zero maximum whose first occurrence (a -0) is not the first
    // zero of the lowest max lane: only the in-order zero lookup gets
    // max_element's sign right.
    inputs.push_back(AoaSpectrum(std::vector<double>{
        -1.0, -1.0, -0.0, -1.0, -1.0, 0.0, -1.0, -1.0, -1.0}));
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const AoaSpectrum& s = inputs[k];
      ASSERT_TRUE(same_bits(s.max_value(), ref::max_value(s)))
          << core::simd::name(lvl) << " input " << k;
      for (double floor : {0.0, 0.08, 0.5}) {
        const auto got = s.find_peaks(floor);
        const auto want = ref::find_peaks(s, floor);
        ASSERT_EQ(got.size(), want.size()) << "input " << k;
        for (std::size_t p = 0; p < got.size(); ++p) {
          EXPECT_EQ(got[p].bin, want[p].bin);
          EXPECT_TRUE(same_bits(got[p].power, want[p].power));
          EXPECT_TRUE(same_bits(got[p].bearing_rad, want[p].bearing_rad));
        }
      }
      // Lobe scaling at every peak and at bearings between them.
      std::vector<double> bearings = {0.0, 1.0, 3.5, 6.2};
      for (const auto& p : ref::find_peaks(s, 0.0))
        bearings.push_back(p.bearing_rad);
      for (double b : bearings)
        for (double factor : {0.0, 0.01}) {
          AoaSpectrum got = s, want = s;
          got.scale_lobe(b, factor);
          ref::scale_lobe(want, b, factor);
          ASSERT_TRUE(same_bits(got.values(), want.values()))
              << "input " << k << " bearing " << b;
        }
      AoaSpectrum got = s, want = s;
      got.normalize();
      ref::normalize(want);
      ASSERT_TRUE(same_bits(got.values(), want.values())) << "input " << k;
    }
  }
}

TEST(TailOracleTest, GeometryWindowMatchesPerBinWeighting) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    Testbed t;
    const Spectra sp = testbed_spectra(t);
    std::vector<AoaSpectrum> inputs(sp.sharp.begin(), sp.sharp.begin() + 6);
    inputs.push_back(AoaSpectrum(720));
    for (std::size_t bins : {97u, 3u, 1u}) {
      AoaSpectrum s(bins);
      for (std::size_t i = 0; i < bins; ++i) s[i] = u(rng);
      inputs.push_back(s);
    }
    for (const auto& s : inputs) {
      const aoa::GeometryWindow window(s.bins());
      for (double soft : {0.0, 0.2}) {
        AoaSpectrum want = s, member = s, table = s;
        ref::apply_geometry_weighting(want, soft);
        member.apply_geometry_weighting(soft);
        window.apply(table, soft);
        EXPECT_TRUE(same_bits(member.values(), want.values()))
            << "bins " << s.bins() << " soft " << soft;
        EXPECT_TRUE(same_bits(table.values(), want.values()))
            << "bins " << s.bins() << " soft " << soft;
      }
    }
  }
  AoaSpectrum wrong(360);
  EXPECT_THROW(aoa::GeometryWindow(720).apply(wrong, 0.0),
               std::invalid_argument);
}

TEST(TailOracleTest, SymmetryMatchesReferenceResolver) {
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    Testbed t;
    std::size_t resolved = 0;
    for (std::size_t a = 0; a < t.system().num_aps(); ++a) {
      const auto& ap = t.system().ap(int(a));
      const core::ApProcessor proc(&ap);
      const auto elements = ap.capture_elements();
      const std::size_t row = ap.config().radios;
      ASSERT_GT(elements.size(), row);
      const double lambda = ap.channel().config().wavelength_m();
      aoa::SymmetryOptions sym;
      sym.suppression = proc.options().symmetry_suppression;
      const aoa::SymmetryResolver resolver(&ap.array(), elements, lambda, sym);
      const ref::Resolver reference{&ap.array(), elements, lambda, sym};
      for (std::size_t f = 0; f < ap.buffer().size(); ++f) {
        const auto& frame = ap.buffer().at(f);
        const linalg::CMatrix samples = ap.calibrated_samples(frame);
        const linalg::CMatrix full = aoa::sample_covariance(samples);
        // The reference sharp pipeline: row covariance -> MUSIC ->
        // per-bin weighting -> reference symmetry removal.
        AoaSpectrum want = proc.music_spectrum(aoa::sample_covariance(
            samples.block(0, 0, row, samples.cols())));
        ref::apply_geometry_weighting(want, 0.0);
        AoaSpectrum got = want;
        for (double theta : {0.0, 0.7, kPi / 2, 2.0, 4.4}) {
          ASSERT_TRUE(same_bits(resolver.probe_power(full, theta),
                                reference.probe_power(full, theta)));
        }
        for (const auto& p : ref::find_peaks(want, 0.0))
          ASSERT_TRUE(same_bits(resolver.probe_power(full, p.bearing_rad),
                                reference.probe_power(full, p.bearing_rad)));
        const std::size_t n_want = reference.resolve_per_peak(full, &want);
        EXPECT_EQ(resolver.resolve_per_peak(full, &got), n_want);
        ASSERT_TRUE(same_bits(got.values(), want.values()))
            << core::simd::name(lvl) << " ap " << a << " frame " << f;
        resolved += n_want;
        // process_sharp (one covariance, tabulated window) is exactly
        // the reference chain.
        ASSERT_TRUE(same_bits(proc.process_sharp(frame).values(),
                              want.values()))
            << core::simd::name(lvl) << " ap " << a << " frame " << f;
      }
    }
    EXPECT_GT(resolved, 0u) << "no symmetry decision was exercised";
  }
}

TEST(TailOracleTest, SuppressionMatchesRescanningReference) {
  for (Level lvl : testable_levels()) {
    ForcedLevel g(lvl);
    Testbed t;
    const Spectra sp = testbed_spectra(t);
    // Groups of 1-4 consecutive spectra of one AP, sharp and blurred.
    std::vector<std::vector<AoaSpectrum>> groups;
    for (const auto* set : {&sp.sharp, &sp.finished})
      for (std::size_t lo = 0; lo + 4 <= set->size(); lo += 3)
        for (std::size_t size = 1; size <= 4; ++size)
          groups.emplace_back(set->begin() + std::ptrdiff_t(lo),
                              set->begin() + std::ptrdiff_t(lo + size));
    // All-zero members, and a group in which nothing pairs.
    groups.push_back({AoaSpectrum(720), AoaSpectrum(720)});
    groups.push_back({sp.finished[0], AoaSpectrum(720), sp.finished[1]});
    groups.push_back({bump_at(0.5), bump_at(2.0), bump_at(4.0)});
    std::size_t erased = 0;
    for (double floor : {0.0, 0.08, 0.5})
      for (std::size_t max_group : {3u, 4u}) {
        core::SuppressionOptions opt;
        opt.peak_floor = floor;
        opt.max_group = max_group;
        for (std::size_t k = 0; k < groups.size(); ++k) {
          const AoaSpectrum got = core::suppress_multipath(groups[k], opt);
          const AoaSpectrum want = ref::suppress_multipath(groups[k], opt);
          ASSERT_TRUE(same_bits(got.values(), want.values()))
              << core::simd::name(lvl) << " floor " << floor << " max_group "
              << max_group << " group " << k;
          erased += got.find_peaks(floor).size() <
                    groups[k].front().find_peaks(floor).size();
        }
      }
    EXPECT_GT(erased, 0u) << "no group had a peak erased";
    // Nothing pairs: the primary passes through untouched.
    const std::vector<AoaSpectrum> apart = groups.back();
    EXPECT_TRUE(same_bits(core::suppress_multipath(apart).values(),
                          apart.front().values()));
  }
}

}  // namespace
}  // namespace arraytrack
