// Array symmetry removal (paper 2.3.4).
//
// A linear array cannot distinguish a bearing theta from its mirror
// -theta. ArrayTrack captures off-row antennas via diversity synthesis,
// compares the received power on each side of the array with the 2-D
// extended geometry, and suppresses the mirrored half-spectrum with
// less power.
//
// Implementation note: rather than integrating beamformer power over
// every bearing (where sidelobes wash out the decision), the side score
// is evaluated only at the spectrum's mirrored peak bearings — exactly
// where the two hypotheses differ. With a half-wavelength row gap the
// extended steering vectors at +90 and -90 degrees coincide, so a
// source exactly broadside is physically ambiguous; the resolver
// reports such cases as undecided and leaves the spectrum mirrored.
#pragma once

#include <cstddef>
#include <vector>

#include "aoa/spectrum.h"
#include "array/placed_array.h"
#include "linalg/matrix.h"

namespace arraytrack::aoa {

enum class Side { kFront, kBack, kAmbiguous };

struct SymmetryOptions {
  /// Factor applied to the losing half (0 erases it outright).
  double suppression = 0.01;
  /// Minimum front/back score ratio (or inverse) to call a side; below
  /// this, the decision is reported ambiguous and nothing is scaled.
  double min_confidence_ratio = 1.03;
  /// Peaks below this fraction of the spectrum max are not scored.
  double peak_floor = 0.08;
};

class SymmetryResolver {
 public:
  /// `elements` are geometry indices including at least one element off
  /// the linear row; snapshot/covariance rows passed to the scoring
  /// methods must match this order.
  SymmetryResolver(const array::PlacedArray* array,
                   std::vector<std::size_t> elements, double lambda_m,
                   SymmetryOptions opt = {});

  /// Bartlett (beamformer) power of the extended array toward a local
  /// bearing, from the extended covariance.
  double probe_power(const linalg::CMatrix& r_extended,
                     double theta_rad) const;

  /// Front/back score ratio evaluated at the spectrum's peak bearings
  /// ("front" is the local sin(theta) > 0 half-plane). Returns +inf
  /// semantics via large values when the back scores zero.
  double side_score_ratio(const linalg::CMatrix& r_extended,
                          const AoaSpectrum& spec) const;

  /// Scales the losing half of `spec` by the suppression factor when
  /// the decision is confident. Returns the chosen side.
  Side resolve(const linalg::CMatrix& r_extended, AoaSpectrum* spec) const;

  /// Per-arrival resolution: every mirrored peak pair (theta, -theta)
  /// is sided independently, so arrivals genuinely coming from both
  /// sides of the array each keep their true lobe. Suppresses the
  /// losing lobe of each confident pair; ambiguous pairs keep both.
  /// Returns the number of pairs resolved.
  std::size_t resolve_per_peak(const linalg::CMatrix& r_extended,
                               AoaSpectrum* spec) const;

 private:
  std::vector<std::size_t> elements_;
  /// Planar offset of each element in elements_ order, and 2*pi/lambda:
  /// the steering-vector inputs, looked up once.
  std::vector<geom::Vec2> offsets_;
  double wavenumber_;
  SymmetryOptions opt_;
};

}  // namespace arraytrack::aoa
