#include "linalg/subspace.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace arraytrack::linalg {
namespace {

// Cyclic complex Jacobi on a small k x k Hermitian matrix held in a raw
// row-major buffer (s[r * k + c]), eigenvectors accumulated into the
// row-major buffer u (overwritten with identity first). Eigenvalues
// land on the diagonal of s, unsorted. The hot-path sibling of the
// CMatrix-based sweep in eigen.cpp: k here is the tracked rank
// (typically 3), and avoiding CMatrix/EigenResult allocations is what
// keeps a tracked update an order of magnitude under a full m x m
// decomposition.
void small_hermitian_jacobi(std::size_t k, cplx* s, cplx* u) {
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c)
      u[r * k + c] = (r == c) ? cplx{1.0, 0.0} : cplx{0.0, 0.0};
  if (k < 2) return;

  double scale = 0.0;
  for (std::size_t i = 0; i < k * k; ++i) scale += std::norm(s[i]);
  const double tol = 1e-14 * std::sqrt(std::max(scale, 1e-300));

  constexpr int kMaxSweeps = 24;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < k; ++p)
      for (std::size_t q = p + 1; q < k; ++q) off += std::abs(s[p * k + q]);
    if (off <= tol) break;

    for (std::size_t p = 0; p + 1 < k; ++p)
      for (std::size_t q = p + 1; q < k; ++q) {
        const cplx spq = s[p * k + q];
        const double g = std::abs(spq);
        if (g <= tol / double(k * k)) continue;

        const cplx phase = spq / g;
        const double theta =
            (s[q * k + q].real() - s[p * k + p].real()) / (2.0 * g);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double sn = t * c;

        for (std::size_t i = 0; i < k; ++i) {
          const cplx sip = s[i * k + p];
          const cplx siq = s[i * k + q];
          s[i * k + p] = c * sip - sn * std::conj(phase) * siq;
          s[i * k + q] = sn * phase * sip + c * siq;
        }
        for (std::size_t i = 0; i < k; ++i) {
          const cplx spi = s[p * k + i];
          const cplx sqi = s[q * k + i];
          s[p * k + i] = c * spi - sn * phase * sqi;
          s[q * k + i] = sn * std::conj(phase) * spi + c * sqi;
        }
        s[p * k + q] = cplx{0.0, 0.0};
        s[q * k + p] = cplx{0.0, 0.0};
        s[p * k + p] = cplx{s[p * k + p].real(), 0.0};
        s[q * k + q] = cplx{s[q * k + q].real(), 0.0};

        for (std::size_t i = 0; i < k; ++i) {
          const cplx uip = u[i * k + p];
          const cplx uiq = u[i * k + q];
          u[i * k + p] = c * uip - sn * std::conj(phase) * uiq;
          u[i * k + q] = sn * phase * uip + c * uiq;
        }
      }
  }
}

}  // namespace

std::size_t signal_count(const std::vector<double>& eigenvalues,
                         double threshold, std::size_t fixed) {
  const std::size_t n = eigenvalues.size();
  if (n <= 1) return n;
  if (fixed > 0) return std::min(fixed, n - 1);
  std::size_t d = 0;
  for (double v : eigenvalues)
    if (v >= threshold * eigenvalues.back()) ++d;
  return std::min(std::max<std::size_t>(d, 1), n - 1);
}

SubspaceTracker::SubspaceTracker(SubspaceOptions opt,
                                 SubspaceCounters* counters)
    : opt_(opt), counters_(counters) {
  opt_.reseed_period_min = std::max<std::size_t>(1, opt_.reseed_period_min);
  opt_.reseed_period_max =
      std::max(opt_.reseed_period_min, opt_.reseed_period_max);
  period_ = opt_.reseed_period;
  if (opt_.adaptive_reseed && period_ > 0)
    period_ = std::clamp(period_, opt_.reseed_period_min,
                         opt_.reseed_period_max);
}

void SubspaceTracker::reset() {
  m_ = 0;
  k_ = 0;
  w_.clear();
  last_full_v_ = CMatrix();
  noise_ref_ = 0.0;
  last_residual_ = 0.0;
  since_full_ = 0;
  basis_ = SubspaceBasis{};
  period_ = opt_.reseed_period;
  if (opt_.adaptive_reseed && period_ > 0)
    period_ = std::clamp(period_, opt_.reseed_period_min,
                         opt_.reseed_period_max);
  resid_early_ = resid_late_ = 0.0;
  resid_early_n_ = resid_late_n_ = 0;
}

SubspaceTrackerState SubspaceTracker::export_state() const {
  SubspaceTrackerState st;
  st.basis = basis_;
  st.m = m_;
  st.k = k_;
  st.w = w_;
  st.last_full_v = last_full_v_;
  st.noise_ref = noise_ref_;
  st.last_residual = last_residual_;
  st.since_full = since_full_;
  st.n_full = n_full_;
  st.n_tracked = n_tracked_;
  st.n_reseed = n_reseed_;
  st.period = period_;
  st.resid_early = resid_early_;
  st.resid_late = resid_late_;
  st.resid_early_n = resid_early_n_;
  st.resid_late_n = resid_late_n_;
  return st;
}

void SubspaceTracker::import_state(const SubspaceTrackerState& st) {
  basis_ = st.basis;
  m_ = st.m;
  k_ = st.k;
  w_ = st.w;
  last_full_v_ = st.last_full_v;
  noise_ref_ = st.noise_ref;
  last_residual_ = st.last_residual;
  since_full_ = st.since_full;
  n_full_ = st.n_full;
  n_tracked_ = st.n_tracked;
  n_reseed_ = st.n_reseed;
  period_ = st.period;
  resid_early_ = st.resid_early;
  resid_late_ = st.resid_late;
  resid_early_n_ = st.resid_early_n;
  resid_late_n_ = st.resid_late_n;
  // The workspaces seed_full would have sized on this node.
  z_.resize(m_ * k_);
  y_.resize(m_ * k_);
  s_.resize(k_ * k_);
  u_.resize(k_ * k_);
  ritz_.resize(k_);
  order_.resize(k_);
}

void SubspaceTracker::adapt_period(bool timer_fired) {
  const double early =
      resid_early_n_ ? resid_early_ / double(resid_early_n_) : 0.0;
  const double late =
      resid_late_n_ ? resid_late_ / double(resid_late_n_) : 0.0;
  const bool rising = resid_late_n_ > 0 && late > 1.25 * early + 1e-12;
  resid_early_ = resid_late_ = 0.0;
  resid_early_n_ = resid_late_n_ = 0;
  if (!opt_.adaptive_reseed || period_ == 0) return;

  // A monitor-forced reseed means the basis decayed before the timer
  // fired; a timer reseed over a window whose residuals rose from its
  // first half to its second means drift is accelerating toward that
  // same outcome. Both halve the cadence. A flat or falling window
  // means the timer fired for nothing: stretch it.
  if (!timer_fired || rising)
    period_ = std::max(opt_.reseed_period_min, period_ / 2);
  else
    period_ = std::min(opt_.reseed_period_max, period_ * 2);
}

const SubspaceBasis& SubspaceTracker::update(const CMatrix& r) {
  if (r.rows() != r.cols())
    throw std::invalid_argument("SubspaceTracker: covariance must be square");

  if (opt_.force_exact) {
    // Kill switch: plain eig_hermitian on every update, the same call
    // the tracker-less spectrum path makes, so spectra stay
    // byte-identical to the no-tracker baseline.
    seed_full(r, /*warm=*/false, /*is_reseed=*/false);
    return basis_;
  }

  const bool cold = k_ == 0 || r.rows() != m_;
  if (cold) {
    seed_full(r, /*warm=*/false, /*is_reseed=*/false);
    return basis_;
  }

  if (period_ > 0 && since_full_ >= period_) {
    adapt_period(/*timer_fired=*/true);
    seed_full(r, /*warm=*/true, /*is_reseed=*/true);
    return basis_;
  }

  if (!tracked_update(r)) {
    adapt_period(/*timer_fired=*/false);
    seed_full(r, /*warm=*/true, /*is_reseed=*/true);
    return basis_;
  }
  return basis_;
}

void SubspaceTracker::seed_full(const CMatrix& r, bool warm, bool is_reseed) {
  const bool can_warm =
      warm && last_full_v_.rows() == r.rows() && last_full_v_.cols() == r.cols();
  EigenResult eig =
      can_warm ? eig_hermitian_seeded(r, last_full_v_) : eig_hermitian(r);

  m_ = r.rows();
  const std::size_t d =
      signal_count(eig.eigenvalues, opt_.eig_threshold, opt_.fixed_num_signals);
  k_ = std::min(d + 1, m_);

  // Tracked basis = top-k eigenvectors, descending (eig_hermitian
  // sorts ascending, so column c of W is eigenvector m-1-c).
  w_.resize(m_ * k_);
  for (std::size_t c = 0; c < k_; ++c) {
    const std::size_t src = m_ - 1 - c;
    for (std::size_t i = 0; i < m_; ++i) w_[c * m_ + i] = eig.eigenvectors(i, src);
  }

  // Reference noise floor: mean of the eigenvalues outside the tracked
  // set. Anchors the unexplained-energy drift test; when the tracked
  // set covers the whole space that test is vacuous.
  if (m_ > k_) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m_ - k_; ++i) acc += eig.eigenvalues[i];
    noise_ref_ = acc / double(m_ - k_);
  } else {
    noise_ref_ = eig.eigenvalues.front();
  }

  basis_.eigenvalues.resize(k_);
  for (std::size_t c = 0; c < k_; ++c)
    basis_.eigenvalues[c] = eig.eigenvalues[m_ - 1 - c];

  last_full_v_ = std::move(eig.eigenvectors);
  last_residual_ = 0.0;
  since_full_ = 0;
  // Cold seeds and size changes reach here without adapt_period
  // having consumed the window; start the new window clean either way.
  resid_early_ = resid_late_ = 0.0;
  resid_early_n_ = resid_late_n_ = 0;

  // Size hot-path workspaces here so tracked updates never allocate.
  z_.resize(m_ * k_);
  y_.resize(m_ * k_);
  s_.resize(k_ * k_);
  u_.resize(k_ * k_);
  ritz_.resize(k_);
  order_.resize(k_);

  ++n_full_;
  if (is_reseed) ++n_reseed_;
  if (counters_ != nullptr) {
    counters_->evd_full.fetch_add(1, std::memory_order_relaxed);
    if (is_reseed) counters_->evd_reseed.fetch_add(1, std::memory_order_relaxed);
  }
  publish_basis(d, /*exact=*/true);
}

bool SubspaceTracker::tracked_update(const CMatrix& r) {
  const std::size_t m = m_;
  const std::size_t k = k_;
  const cplx* rd = r.data();

  // Power step Z = R * W, column by column (R row-major, W col-major).
  for (std::size_t c = 0; c < k; ++c) {
    const cplx* wc = &w_[c * m];
    cplx* zc = &z_[c * m];
    for (std::size_t i = 0; i < m; ++i) {
      const cplx* ri = rd + i * m;
      cplx acc{0.0, 0.0};
      for (std::size_t j = 0; j < m; ++j) acc += ri[j] * wc[j];
      zc[i] = acc;
    }
  }

  // Rayleigh quotient S = W^H * Z (k x k, row-major).
  double s_norm2 = 0.0;
  for (std::size_t a = 0; a < k; ++a) {
    const cplx* wa = &w_[a * m];
    for (std::size_t b = 0; b < k; ++b) {
      const cplx* zb = &z_[b * m];
      cplx acc{0.0, 0.0};
      for (std::size_t i = 0; i < m; ++i) acc += std::conj(wa[i]) * zb[i];
      s_[a * k + b] = acc;
      s_norm2 += std::norm(acc);
    }
  }

  double z_norm2 = 0.0;
  for (std::size_t i = 0; i < m * k; ++i) z_norm2 += std::norm(z_[i]);
  if (z_norm2 <= 1e-300) return false;  // degenerate covariance: reseed

  // Invariance residual, free by Pythagoras: with W orthonormal,
  // ||R W - W S||_F^2 = ||Z||_F^2 - ||S||_F^2. Large relative residual
  // means the subspace rotated faster than one power step can follow.
  const double resid2 = std::max(0.0, z_norm2 - s_norm2);
  last_residual_ = std::sqrt(resid2 / z_norm2);
  // Window accounting for the adaptive cadence: first vs second half
  // of the refresh window (a monitor rejection below still lands its
  // high residual in the window before adapt_period reads it).
  if (period_ > 0 && since_full_ * 2 < period_) {
    resid_early_ += last_residual_;
    ++resid_early_n_;
  } else {
    resid_late_ += last_residual_;
    ++resid_late_n_;
  }
  if (last_residual_ > opt_.residual_tol) return false;

  // Ritz refinement: diagonalize S, rotate Z into the Ritz frame.
  small_hermitian_jacobi(k, s_.data(), u_.data());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return s_[a * k + a].real() > s_[b * k + b].real();
  });
  for (std::size_t j = 0; j < k; ++j)
    ritz_[j] = s_[order_[j] * k + order_[j]].real();

  const std::size_t d = basis_.num_signals;
  const double top = ritz_[0];
  if (top <= 0.0) return false;

  // Signal-count drift: the D-selection rule applied to the Ritz
  // values. The probe column (index d) promoting to signal strength,
  // or the weakest tracked signal decaying below the threshold, both
  // change d — reseed so the full eigensystem re-derives it.
  if (opt_.fixed_num_signals == 0) {
    if (d < k && ritz_[d] >= opt_.eig_threshold * top) return false;
    if (d >= 2 && ritz_[d - 1] < opt_.eig_threshold * top) return false;
  }

  // Blind-spot guard: energy orthogonal to span(W) is invisible to
  // R * W, so compare total power tr(R) against what the tracked Ritz
  // values plus the reference noise floor explain. A new arrival
  // outside the tracked span shows up here first.
  if (m > k) {
    double trace = 0.0;
    for (std::size_t i = 0; i < m; ++i) trace += rd[i * m + i].real();
    double explained = double(m - k) * noise_ref_;
    for (std::size_t j = 0; j < k; ++j) explained += ritz_[j];
    if (trace - explained >= opt_.eig_threshold * top) return false;
  }

  // New basis Y = Z * U, columns in descending Ritz order, then
  // modified Gram-Schmidt. MGS on Z U (rather than normalizing W U)
  // folds the power step's rotation into the basis — this is what
  // makes the recursion converge to the dominant subspace instead of
  // merely rotating within the seeded one.
  for (std::size_t j = 0; j < k; ++j) {
    cplx* yj = &y_[j * m];
    const std::size_t uc = order_[j];
    for (std::size_t i = 0; i < m; ++i) {
      cplx acc{0.0, 0.0};
      for (std::size_t a = 0; a < k; ++a) acc += z_[a * m + i] * u_[a * k + uc];
      yj[i] = acc;
    }
  }
  const double col_floor = 1e-12 * std::sqrt(z_norm2 / double(k));
  for (std::size_t j = 0; j < k; ++j) {
    cplx* yj = &y_[j * m];
    for (std::size_t p = 0; p < j; ++p) {
      const cplx* yp = &y_[p * m];
      cplx proj{0.0, 0.0};
      for (std::size_t i = 0; i < m; ++i) proj += std::conj(yp[i]) * yj[i];
      for (std::size_t i = 0; i < m; ++i) yj[i] -= proj * yp[i];
    }
    double nrm2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) nrm2 += std::norm(yj[i]);
    const double nrm = std::sqrt(nrm2);
    if (nrm <= col_floor) return false;  // rank collapse: reseed
    const double inv = 1.0 / nrm;
    for (std::size_t i = 0; i < m; ++i) yj[i] *= inv;
  }

  w_.swap(y_);
  basis_.eigenvalues.assign(ritz_.begin(), ritz_.end());
  ++since_full_;
  ++n_tracked_;
  if (counters_ != nullptr)
    counters_->evd_tracked.fetch_add(1, std::memory_order_relaxed);
  publish_basis(d, /*exact=*/false);
  return true;
}

void SubspaceTracker::publish_basis(std::size_t d, bool exact) {
  basis_.m = m_;
  basis_.k = k_;
  basis_.num_signals = d;
  basis_.exact = exact;
  basis_.re.resize(k_ * m_);
  basis_.im.resize(k_ * m_);
  for (std::size_t c = 0; c < k_; ++c)
    for (std::size_t i = 0; i < m_; ++i) {
      basis_.re[c * m_ + i] = w_[c * m_ + i].real();
      basis_.im[c * m_ + i] = w_[c * m_ + i].imag();
    }
}

}  // namespace arraytrack::linalg
