#include "aoa/spectrum.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "linalg/kernels.h"

namespace arraytrack::aoa {

std::size_t AoaSpectrum::bearing_bin(double rad) const {
  const double w = wrap_2pi(rad);
  return std::size_t(w / bin_width_rad()) % power_.size();
}

double AoaSpectrum::value_at(double rad) const {
  if (power_.empty()) return 0.0;
  const double w = wrap_2pi(rad) / bin_width_rad();
  const std::size_t i0 = std::size_t(w) % power_.size();
  const std::size_t i1 = (i0 + 1) % power_.size();
  const double f = w - std::floor(w);
  return (1.0 - f) * power_[i0] + f * power_[i1];
}

double AoaSpectrum::max_value() const {
  // The value std::max_element returns, found with four independent
  // max chains (which compile to packed max instructions) instead of
  // one serial compare-and-branch chain. The lanes agree with the
  // serial scan on every value but the sign of a zero maximum, so a
  // zero maximum is resolved by finding the first zero in order.
  const std::size_t n = power_.size();
  if (n == 0) return 0.0;
  const double* p = power_.data();
  if (std::isnan(p[0])) return p[0];  // NaN never compares larger
  double m[4] = {p[0], p[0], p[0], p[0]};
  std::size_t i = 1;
  for (; i + 4 <= n; i += 4)
    for (std::size_t l = 0; l < 4; ++l)
      m[l] = m[l] < p[i + l] ? p[i + l] : m[l];
  for (; i < n; ++i) m[0] = m[0] < p[i] ? p[i] : m[0];
  double best = m[0];
  for (std::size_t l = 1; l < 4; ++l) best = best < m[l] ? m[l] : best;
  if (best == 0.0)
    for (std::size_t k = 0;; ++k)
      if (p[k] == 0.0) return p[k];
  return best;
}

double AoaSpectrum::dominant_bearing() const {
  if (power_.empty()) return 0.0;
  const auto it = std::max_element(power_.begin(), power_.end());
  return bin_bearing(std::size_t(it - power_.begin()));
}

void AoaSpectrum::normalize() {
  const double m = max_value();
  if (m <= 0.0) return;
  for (auto& v : power_) v /= m;
}

std::vector<Peak> AoaSpectrum::find_peaks(double min_fraction) const {
  std::vector<Peak> peaks;
  const std::size_t n = power_.size();
  if (n < 3) return peaks;
  const double floor_level = min_fraction * max_value();
  const double* p = power_.data();
  // The circular neighbourhood: bins 0 and n-1 wrap, the rest do not.
  // The floor test comes first: it rejects most bins, predictably.
  const auto is_peak = [&](double v, double prev, double next) {
    return v >= floor_level && v > 0.0 && v > prev && v >= next;
  };
  if (is_peak(p[0], p[n - 1], p[1]))
    peaks.push_back({bin_bearing(0), p[0], 0});
  for (std::size_t i = 1; i + 1 < n; ++i)
    if (is_peak(p[i], p[i - 1], p[i + 1]))
      peaks.push_back({bin_bearing(i), p[i], i});
  if (is_peak(p[n - 1], p[n - 2], p[0]))
    peaks.push_back({bin_bearing(n - 1), p[n - 1], n - 1});
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.power > b.power; });
  return peaks;
}

void AoaSpectrum::scale_lobe(double bearing_rad, double factor) {
  const std::size_t n = power_.size();
  if (n < 3) return;
  // Circular neighbours by compare rather than %: the walks below take
  // a step per bin of the lobe, and an integer division per step would
  // dominate them.
  const auto up = [n](std::size_t i) { return i + 1 == n ? 0 : i + 1; };
  const auto down = [n](std::size_t i) { return i == 0 ? n - 1 : i - 1; };
  // Climb to the local maximum of the lobe containing the bearing.
  std::size_t top = bearing_bin(bearing_rad);
  for (std::size_t guard = 0; guard < n; ++guard) {
    if (power_[up(top)] > power_[top])
      top = up(top);
    else if (power_[down(top)] > power_[top])
      top = down(top);
    else
      break;
  }
  // Walk to the surrounding minima and clear the lobe.
  std::size_t lo = top;
  for (std::size_t guard = 0; guard < n; ++guard) {
    const std::size_t next = down(lo);
    if (power_[next] <= power_[lo] && next != top)
      lo = next;
    else
      break;
  }
  std::size_t hi = top;
  for (std::size_t guard = 0; guard < n; ++guard) {
    const std::size_t next = up(hi);
    if (power_[next] <= power_[hi] && next != top)
      hi = next;
    else
      break;
  }
  for (std::size_t i = lo;; i = up(i)) {
    power_[i] *= factor;
    if (i == hi) break;
  }
}

void AoaSpectrum::apply_geometry_weighting(double soft_floor) {
  GeometryWindow(bins()).apply(*this, soft_floor);
}

GeometryWindow::GeometryWindow(std::size_t bins) : bins_(bins) {
  const double bin_width = kTwoPi / double(bins);
  const double lo = deg2rad(15.0);
  const double hi = deg2rad(165.0);
  for (std::size_t i = 0; i < bins; ++i) {
    const double theta = double(i) * bin_width;
    // Angle from the array axis (the x-axis line), folded to [0, pi].
    const double from_axis = theta <= kPi ? theta : kTwoPi - theta;
    if (from_axis <= lo || from_axis >= hi) {
      bin_.push_back(i);
      weight_.push_back(std::abs(std::sin(from_axis)));
    }
  }
}

void GeometryWindow::apply(AoaSpectrum& spec, double soft_floor) const {
  if (spec.bins() != bins_)
    throw std::invalid_argument("GeometryWindow: spectrum size mismatch");
  const double blend = soft_floor * spec.max_value();
  for (std::size_t k = 0; k < bin_.size(); ++k) {
    double& p = spec[bin_[k]];
    p = weight_[k] * p + (1.0 - weight_[k]) * blend;
  }
}

void AoaSpectrum::scale_side(bool front, double factor) {
  for (std::size_t i = 0; i < power_.size(); ++i) {
    const double s = std::sin(bin_bearing(i));
    if ((front && s > 0.0) || (!front && s < 0.0)) power_[i] *= factor;
  }
}

double AoaSpectrum::side_power(bool front) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < power_.size(); ++i) {
    const double s = std::sin(bin_bearing(i));
    if ((front && s > 0.0) || (!front && s < 0.0)) acc += power_[i];
  }
  return acc;
}

std::vector<double> gaussian_taps(double sigma_rad, std::size_t bins) {
  if (bins < 3 || sigma_rad <= 0.0) return {};
  const double bin_width = kTwoPi / double(bins);
  const double sigma_bins = sigma_rad / bin_width;
  const std::size_t half = std::min<std::size_t>(
      bins / 2, std::size_t(std::ceil(4.0 * sigma_bins)));
  std::vector<double> kernel(2 * half + 1);
  double sum = 0.0;
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    const double d = double(i) - double(half);
    kernel[i] = std::exp(-0.5 * (d / sigma_bins) * (d / sigma_bins));
    sum += kernel[i];
  }
  for (auto& k : kernel) k /= sum;
  return kernel;
}

void AoaSpectrum::convolve_gaussian(double sigma_rad) {
  blur_rows(sigma_rad, {this, 1});
}

void blur_rows(double sigma_rad, std::span<AoaSpectrum> rows) {
  if (rows.empty()) return;
  const std::size_t bins = rows.front().bins();
  for (const auto& row : rows)
    if (row.bins() != bins) {
      // Mixed bin counts cannot share taps; blur row by row.
      for (auto& r : rows) blur_rows(sigma_rad, {&r, 1});
      return;
    }
  blur_rows(gaussian_taps(sigma_rad, bins), rows);
}

void blur_rows(std::span<const double> taps, std::span<AoaSpectrum> rows) {
  if (taps.empty() || rows.empty() || rows.front().empty()) return;
  const std::size_t bins = rows.front().bins();
  const std::size_t half = taps.size() / 2;
  if (taps.size() % 2 == 0 || half > bins / 2)
    throw std::invalid_argument("blur_rows: taps do not fit the spectrum");
  for (const auto& row : rows)
    if (row.bins() != bins)
      throw std::invalid_argument("blur_rows: rows differ in size");
  const std::size_t nrows = rows.size();
  const std::size_t nin = bins + 2 * half;
  // Per-thread buffers, reused across calls so the blur does not
  // allocate once they have grown to the largest stack seen.
  thread_local std::vector<double> ext, out;
  ext.resize(nrows * nin);
  out.resize(nrows * bins);
  // Each row's circular extension is contiguous: its last `half` bins,
  // the row, then its first `half` bins, so sample e holds bin
  // (e - half) mod bins and the circular convolution is a plain FIR.
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* src = rows[r].values().data();
    double* e = ext.data() + r * nin;
    std::copy(src + bins - half, src + bins, e);
    std::copy(src, src + bins, e + half);
    std::copy(src, src + half, e + half + bins);
  }
  linalg::kernels::fir_batch(ext.data(), nrows, bins, taps.data(), taps.size(),
                             out.data());
  for (std::size_t r = 0; r < nrows; ++r)
    std::copy(out.data() + r * bins, out.data() + (r + 1) * bins, &rows[r][0]);
}

AoaSpectrum& AoaSpectrum::operator+=(const AoaSpectrum& other) {
  if (bins() != other.bins())
    throw std::invalid_argument("AoaSpectrum += size mismatch");
  for (std::size_t i = 0; i < power_.size(); ++i) power_[i] += other.power_[i];
  return *this;
}

AoaSpectrum& AoaSpectrum::operator*=(double s) {
  for (auto& v : power_) v *= s;
  return *this;
}

std::string AoaSpectrum::to_ascii(std::size_t width, std::size_t height) const {
  if (power_.empty() || width == 0 || height == 0) return "";
  std::vector<double> cols(width, 0.0);
  for (std::size_t i = 0; i < power_.size(); ++i) {
    const std::size_t c = i * width / power_.size();
    cols[c] = std::max(cols[c], power_[i]);
  }
  const double top = *std::max_element(cols.begin(), cols.end());
  std::ostringstream os;
  for (std::size_t r = 0; r < height; ++r) {
    const double level = top * double(height - r) / double(height);
    for (std::size_t c = 0; c < width; ++c)
      os << (cols[c] >= level && top > 0.0 ? '#' : ' ');
    os << "\n";
  }
  os << std::string(width, '-') << "\n";
  // Axis labels under the ruler; a render too narrow for the padding
  // packs the labels together instead of wrapping the size_t count.
  const auto pad = [](std::size_t want, std::size_t used) {
    return std::string(want > used ? want - used : 0, ' ');
  };
  os << "0" << pad(width / 2, 4) << "180" << pad(width - width / 2, 3)
     << "360 deg\n";
  return os.str();
}

double bearing_distance(double a_rad, double b_rad) {
  return std::abs(wrap_pi(a_rad - b_rad));
}

}  // namespace arraytrack::aoa
