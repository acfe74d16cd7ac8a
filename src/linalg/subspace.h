// Rank-d signal-subspace tracking over a slowly varying Hermitian
// covariance stream (the "kill the per-packet EVD" optimization).
//
// Consecutive frames from one client produce nearly identical antenna
// covariances, so the MUSIC signal subspace barely rotates between
// fixes. Instead of a full cyclic-Jacobi eigendecomposition per frame,
// a SubspaceTracker carries the d dominant eigenvectors (plus one
// probe direction) from frame to frame and refreshes them with one
// power step + Rayleigh-Ritz refinement per update — O(m^2 k) against
// Jacobi's O(m^3 * sweeps) — falling back to the exact decomposition
// (warm-started from the last full eigenbasis) whenever a drift
// monitor says the tracked basis can no longer be trusted.
//
// The MUSIC projector sweep only needs an orthonormal basis of the
// signal *subspace* (it is invariant to rotations within it), which is
// exactly what the tracker maintains; the Ritz values stand in for the
// leading eigenvalues in the D-selection rule.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/eigen.h"
#include "linalg/matrix.h"

namespace arraytrack::linalg {

/// Shared D-selection rule (paper 2.3.1): with `fixed` == 0, count the
/// eigenvalues within `threshold` of the largest, clamped to
/// [1, n - 1] so at least one signal and one noise direction remain;
/// `fixed` > 0 overrides the count (still clamped to n - 1).
/// `eigenvalues` must be sorted ascending (eig_hermitian order) and
/// non-empty; a single-entry list returns 1.
std::size_t signal_count(const std::vector<double>& eigenvalues,
                         double threshold, std::size_t fixed = 0);

struct SubspaceOptions {
  /// D-selection threshold, mirroring MusicOptions::eig_threshold.
  double eig_threshold = 0.06;
  /// Fixed signal count override; 0 = automatic via eig_threshold.
  std::size_t fixed_num_signals = 0;
  /// Relative invariant-subspace residual ||R W - W (W^H R W)||_F /
  /// ||R W||_F above which the tracked basis is abandoned and reseeded
  /// with a full decomposition.
  double residual_tol = 0.15;
  /// Unconditional full-decomposition refresh every this many updates
  /// (bounds slow cumulative drift the residual cannot see); 0 = never.
  /// With adaptive_reseed this is the initial cadence.
  std::size_t reseed_period = 64;
  /// Adapt the refresh cadence to the observed residual trend instead
  /// of holding it fixed: a monitor-forced reseed, or a refresh window
  /// whose residuals rose from its first half to its second, halves
  /// the period (drift is outpacing the timer); a flat or falling
  /// window doubles it (the timer fired for nothing). The period stays
  /// inside [reseed_period_min, reseed_period_max]; the cadence is a
  /// pure function of the covariance stream, so per-stream determinism
  /// is unchanged. Ignored when reseed_period == 0.
  bool adaptive_reseed = true;
  std::size_t reseed_period_min = 16;
  std::size_t reseed_period_max = 256;
  /// Run the exact full-Jacobi path on every update, byte-identical to
  /// the tracker-less code path (the cross-check baseline for tests
  /// and benches).
  bool force_exact = false;
};

/// Shared atomic tallies for a fleet of trackers (e.g. every tracker
/// of a LocationService), so the tracked/full split is observable in
/// production stats snapshots. Increments are relaxed; totals only.
struct SubspaceCounters {
  /// Full Jacobi decompositions (cold seeds + forced-exact + reseeds).
  std::atomic<std::uint64_t> evd_full{0};
  /// Updates served by the tracked recursion (no decomposition).
  std::atomic<std::uint64_t> evd_tracked{0};
  /// Subset of evd_full forced by the monitor (drift, signal-count
  /// change, rank collapse) or the periodic refresh, after a tracked
  /// history existed.
  std::atomic<std::uint64_t> evd_reseed{0};
};

/// The tracker's current estimate of the dominant eigenstructure.
/// Vectors are stored split-complex and vector-major — re[s * m + i]
/// is Re(e_s[i]) — with s = 0 the largest-eigenvalue direction, so the
/// first num_signals planes feed kernels::projector_power directly.
struct SubspaceBasis {
  std::size_t m = 0;            ///< ambient dimension (antennas)
  std::size_t k = 0;            ///< tracked directions (signals + probe)
  std::size_t num_signals = 0;  ///< d: leading columns spanning the signal subspace
  std::vector<double> re, im;   ///< k * m, orthonormal columns, descending
  /// Leading eigenvalues, descending: exact from Jacobi on full
  /// updates, Ritz values of the tracked basis otherwise.
  std::vector<double> eigenvalues;
  bool exact = false;  ///< true when this basis came from a full decomposition
};

/// Bit-exact snapshot of one tracker's mutable state, the unit of
/// session handoff between federation nodes (src/cluster/). Excludes
/// the options (fixed at construction — exporter and importer must be
/// constructed with identical SubspaceOptions, which the service
/// guarantees by building every session from the same ServerOptions)
/// and the reused workspaces (resized on import). Doubles are carried
/// verbatim, so a handed-off tracker continues the exact sequence of
/// tracked updates the original would have produced.
struct SubspaceTrackerState {
  SubspaceBasis basis;
  std::size_t m = 0, k = 0;
  std::vector<cplx> w;
  CMatrix last_full_v;
  double noise_ref = 0.0, last_residual = 0.0;
  std::size_t since_full = 0;
  std::uint64_t n_full = 0, n_tracked = 0, n_reseed = 0;
  std::size_t period = 0;
  double resid_early = 0.0, resid_late = 0.0;
  std::size_t resid_early_n = 0, resid_late_n = 0;
};

/// Tracks the dominant subspace of one Hermitian covariance stream.
/// Not thread-safe; one tracker belongs to one (client, AP) stream and
/// is updated in frame order, which makes the tracked spectra a
/// deterministic function of that stream alone.
class SubspaceTracker {
 public:
  explicit SubspaceTracker(SubspaceOptions opt = {},
                           SubspaceCounters* counters = nullptr);

  /// Folds one covariance into the tracked state and returns the basis
  /// to use for it. The first call (and any call after reset(), a size
  /// change, drift, a signal-count change, or the periodic refresh)
  /// runs a full decomposition; steady-state calls run the tracked
  /// recursion. `r` must be square Hermitian.
  const SubspaceBasis& update(const CMatrix& r);

  /// Drops all tracked state; the next update reseeds from scratch.
  void reset();

  /// Snapshot / restore of the mutable tracked state (see
  /// SubspaceTrackerState). import_state() replaces whatever this
  /// tracker held; the next update continues the imported stream
  /// bit-for-bit.
  SubspaceTrackerState export_state() const;
  void import_state(const SubspaceTrackerState& st);

  const SubspaceOptions& options() const { return opt_; }
  const SubspaceBasis& basis() const { return basis_; }
  /// True when this tracker runs the exact path on every update
  /// (the force_exact option).
  bool exact_only() const { return opt_.force_exact; }

  /// Relative residual of the most recent tracked attempt (0 after a
  /// full decomposition).
  double last_residual() const { return last_residual_; }

  /// Current refresh cadence: equals options().reseed_period until
  /// adaptive_reseed moves it.
  std::size_t reseed_period_current() const { return period_; }

  // Per-tracker tallies (the shared SubspaceCounters aggregate these
  // across trackers).
  std::uint64_t updates() const { return n_full_ + n_tracked_; }
  std::uint64_t full_evds() const { return n_full_; }
  std::uint64_t tracked_updates() const { return n_tracked_; }
  std::uint64_t reseeds() const { return n_reseed_; }

 private:
  void seed_full(const CMatrix& r, bool warm, bool is_reseed);
  /// One power step + Rayleigh-Ritz refinement; false when the drift
  /// monitor demands a reseed instead.
  bool tracked_update(const CMatrix& r);
  void publish_basis(std::size_t d, bool exact);
  /// Folds the finished refresh window into the adaptive cadence
  /// (`timer_fired` = the periodic refresh, not the drift monitor,
  /// triggered this reseed) and clears the window accumulators.
  void adapt_period(bool timer_fired);

  SubspaceOptions opt_;
  SubspaceCounters* counters_ = nullptr;

  SubspaceBasis basis_;
  std::size_t m_ = 0;  ///< ambient dimension of the tracked state
  std::size_t k_ = 0;  ///< tracked directions (0 = no state yet)
  /// Tracked orthonormal basis, column-major (w_[c * m_ + r]), columns
  /// in descending eigenvalue order; first basis_.num_signals columns
  /// span the signal subspace, the last is the growth probe.
  std::vector<cplx> w_;
  /// Eigenvector matrix of the last full decomposition — the warm
  /// start seed for reseeds (near-diagonalizes the next covariance).
  CMatrix last_full_v_;
  /// Mean noise eigenvalue at the last full decomposition; anchors the
  /// unexplained-energy test of the drift monitor.
  double noise_ref_ = 0.0;
  double last_residual_ = 0.0;
  std::size_t since_full_ = 0;
  std::uint64_t n_full_ = 0, n_tracked_ = 0, n_reseed_ = 0;

  /// Adaptive refresh cadence (== opt_.reseed_period when fixed).
  std::size_t period_ = 0;
  /// Residual sums over the current refresh window, split at period/2,
  /// so a reseed can compare the window's first half against its
  /// second (the "rising" signal).
  double resid_early_ = 0.0, resid_late_ = 0.0;
  std::size_t resid_early_n_ = 0, resid_late_n_ = 0;

  // Reused workspaces (no steady-state allocation on the hot path).
  std::vector<cplx> z_, s_, u_, y_;
  std::vector<double> ritz_;
  std::vector<std::size_t> order_;
};

}  // namespace arraytrack::linalg
