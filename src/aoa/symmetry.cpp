#include "aoa/symmetry.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace arraytrack::aoa {

namespace {

// q = a^H (R a) for a row-major m x m R, each entry of R a summed in
// column order and the dot in element order, as CMatrix * CVector and
// CVector::dot do. kWrittenOut spells each complex product as
// (ac - bd, ad + bc). That is the compiler's complex multiply minus
// its call to the runtime's infinity rescue when both parts come out
// NaN. The mere presence of that call keeps the accumulators out of
// registers; with it, a whole probe took ~1.6x as long.
template <bool kWrittenOut>
cplx quadratic_form(const cplx* r, const cplx* a, std::size_t m, cplx* ra) {
  const auto mul = [](cplx z, cplx w) {
    if constexpr (kWrittenOut)
      return cplx{z.real() * w.real() - z.imag() * w.imag(),
                  z.real() * w.imag() + z.imag() * w.real()};
    else
      return z * w;
  };
  for (std::size_t row = 0; row < m; ++row) {
    cplx acc{0.0, 0.0};
    for (std::size_t c = 0; c < m; ++c) acc += mul(r[row * m + c], a[c]);
    ra[row] = acc;
  }
  cplx q{0.0, 0.0};
  for (std::size_t i = 0; i < m; ++i) q += mul(std::conj(a[i]), ra[i]);
  return q;
}

}  // namespace

SymmetryResolver::SymmetryResolver(const array::PlacedArray* array,
                                   std::vector<std::size_t> elements,
                                   double lambda_m, SymmetryOptions opt)
    : elements_(std::move(elements)),
      wavenumber_(kTwoPi / lambda_m),
      opt_(opt) {
  if (elements_.size() < 3)
    throw std::invalid_argument("SymmetryResolver: need >= 3 elements");
  for (std::size_t e : elements_)
    offsets_.push_back(array->geometry().offset(e));
}

double SymmetryResolver::probe_power(const linalg::CMatrix& r_extended,
                                     double theta_rad) const {
  const std::size_t m = elements_.size();
  if (r_extended.rows() != m)
    throw std::invalid_argument("SymmetryResolver: covariance size mismatch");
  // a^H R a for the normalized steering vector a of the extended array
  // (PlacedArray::steering_subset), in per-thread scratch: the same
  // complex arithmetic as normalized() and quadratic_form_real, without
  // the three temporaries they allocate.
  thread_local std::vector<cplx> scratch;
  scratch.resize(2 * m);
  cplx* a = scratch.data();
  cplx* ra = a + m;
  const geom::Vec2 u = geom::unit_from_angle(theta_rad);
  double sq = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    a[i] = std::exp(kJ * (wavenumber_ * offsets_[i].dot(u)));
    sq += std::norm(a[i]);
  }
  const double n = std::sqrt(sq);
  if (n != 0.0)
    for (std::size_t i = 0; i < m; ++i) a[i] *= cplx{1.0 / n, 0.0};
  cplx q = quadratic_form<true>(r_extended.data(), a, m, ra);
  // A (NaN, NaN) product, the one case where the written-out formula
  // and the compiler's complex multiply can differ, leaves q.real()
  // NaN; only then is the form redone with std::complex products.
  if (std::isnan(q.real()))
    q = quadratic_form<false>(r_extended.data(), a, m, ra);
  assert(std::abs(q.imag()) <= 1e-6 * (1.0 + std::abs(q.real())));
  return q.real();
}

double SymmetryResolver::side_score_ratio(const linalg::CMatrix& r_extended,
                                          const AoaSpectrum& spec) const {
  // The mirrored spectrum has equal peaks at theta and -theta; the
  // extended-array beamformer breaks the tie at those bearings.
  double front = 0.0;
  double back = 0.0;
  for (const auto& peak : spec.find_peaks(opt_.peak_floor)) {
    const double s = std::sin(peak.bearing_rad);
    if (s == 0.0) continue;  // on-axis: mirror is itself
    const double p = peak.power * probe_power(r_extended, peak.bearing_rad);
    if (s > 0.0)
      front += p;
    else
      back += p;
  }
  if (back <= 0.0) return front > 0.0 ? 1e9 : 1.0;
  return front / back;
}

std::size_t SymmetryResolver::resolve_per_peak(
    const linalg::CMatrix& r_extended, AoaSpectrum* spec) const {
  const auto peaks = spec->find_peaks(opt_.peak_floor);
  std::size_t resolved = 0;
  std::vector<bool> done(peaks.size(), false);
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    if (done[i]) continue;
    const double theta = peaks[i].bearing_rad;
    if (std::sin(theta) == 0.0) continue;
    const double mirror = wrap_2pi(-theta);
    // Find the partner peak (present in a mirrored spectrum; may have
    // been merged away by weighting near the axis).
    std::ptrdiff_t partner = -1;
    for (std::size_t j = i + 1; j < peaks.size(); ++j) {
      if (!done[j] &&
          bearing_distance(peaks[j].bearing_rad, mirror) < deg2rad(3.0)) {
        partner = std::ptrdiff_t(j);
        break;
      }
    }
    done[i] = true;
    if (partner >= 0) done[std::size_t(partner)] = true;

    const double p_here = probe_power(r_extended, theta);
    const double p_mirror = probe_power(r_extended, mirror);
    if (p_here >= opt_.min_confidence_ratio * p_mirror) {
      spec->scale_lobe(mirror, opt_.suppression);
      ++resolved;
    } else if (p_mirror >= opt_.min_confidence_ratio * p_here) {
      spec->scale_lobe(theta, opt_.suppression);
      ++resolved;
    }
  }
  return resolved;
}

Side SymmetryResolver::resolve(const linalg::CMatrix& r_extended,
                               AoaSpectrum* spec) const {
  const double ratio = side_score_ratio(r_extended, *spec);
  if (ratio >= opt_.min_confidence_ratio) {
    spec->scale_side(/*front=*/false, opt_.suppression);
    return Side::kFront;
  }
  if (ratio <= 1.0 / opt_.min_confidence_ratio) {
    spec->scale_side(/*front=*/true, opt_.suppression);
    return Side::kBack;
  }
  return Side::kAmbiguous;
}

}  // namespace arraytrack::aoa
