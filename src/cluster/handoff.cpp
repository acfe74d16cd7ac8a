#include "cluster/handoff.h"

#include <cstring>

namespace arraytrack::cluster {
namespace {

constexpr std::uint32_t kMagic = 0x41545353;  // bytes "SSTA"
constexpr std::uint32_t kVersion = 1;
/// Sanity ceilings: a handoff describes one client's session, not an
/// arbitrary blob. Shapes beyond these are corruption by construction.
constexpr std::size_t kMaxAps = 4096;
constexpr std::size_t kMaxFrames = 65536;
constexpr std::size_t kMaxDim = 65536;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_cplx(std::vector<std::uint8_t>& out, const cplx& v) {
  put_f64(out, v.real());
  put_f64(out, v.imag());
}

void put_cmatrix(std::vector<std::uint8_t>& out, const linalg::CMatrix& m) {
  put_u32(out, std::uint32_t(m.rows()));
  put_u32(out, std::uint32_t(m.cols()));
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) put_cplx(out, m(r, c));
}

/// Bounds-checked cursor over the input; every get_* fails sticky once
/// the buffer runs short.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t off = 0;
  bool ok = true;

  bool need(std::size_t k) {
    if (!ok || n - off < k) ok = false;
    return ok;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[off + i]) << (8 * i);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[off + i]) << (8 * i);
    off += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  cplx c64() {
    const double re = f64();
    const double im = f64();
    return {re, im};
  }
  bool matrix(linalg::CMatrix& m) {
    const std::size_t rows = u32();
    const std::size_t cols = u32();
    if (!ok || rows > kMaxDim || cols > kMaxDim || !need(rows * cols * 16))
      return ok = false;
    m = linalg::CMatrix(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) m(r, c) = c64();
    return ok;
  }
};

void put_frame(std::vector<std::uint8_t>& out, const phy::FrameCapture& f) {
  put_f64(out, f.timestamp_s);
  put_f64(out, f.snr_db);
  put_u32(out, std::uint32_t(f.client_id));
  put_u32(out, f.source_ap);
  put_u64(out, f.wire_seq);
  put_u32(out, std::uint32_t(f.element_ids.size()));
  for (std::size_t id : f.element_ids) put_u64(out, std::uint64_t(id));
  put_cmatrix(out, f.samples);
}

bool get_frame(Reader& r, phy::FrameCapture& f) {
  f.timestamp_s = r.f64();
  f.snr_db = r.f64();
  f.client_id = int(std::int32_t(r.u32()));
  f.source_ap = r.u32();
  f.wire_seq = r.u64();
  const std::size_t n_ids = r.u32();
  if (!r.ok || n_ids > kMaxDim || !r.need(n_ids * 8)) return r.ok = false;
  f.element_ids.resize(n_ids);
  for (std::size_t i = 0; i < n_ids; ++i)
    f.element_ids[i] = std::size_t(r.u64());
  return r.matrix(f.samples);
}

void put_subspace(std::vector<std::uint8_t>& out,
                  const linalg::SubspaceTrackerState& st) {
  const auto& b = st.basis;
  put_u32(out, std::uint32_t(b.m));
  put_u32(out, std::uint32_t(b.k));
  put_u32(out, std::uint32_t(b.num_signals));
  put_u32(out, b.exact ? 1 : 0);
  put_u32(out, std::uint32_t(b.re.size()));
  for (double v : b.re) put_f64(out, v);
  for (double v : b.im) put_f64(out, v);
  put_u32(out, std::uint32_t(b.eigenvalues.size()));
  for (double v : b.eigenvalues) put_f64(out, v);

  put_u32(out, std::uint32_t(st.m));
  put_u32(out, std::uint32_t(st.k));
  put_u32(out, std::uint32_t(st.w.size()));
  for (const cplx& v : st.w) put_cplx(out, v);
  put_cmatrix(out, st.last_full_v);
  put_f64(out, st.noise_ref);
  put_f64(out, st.last_residual);
  put_u64(out, st.since_full);
  put_u64(out, st.n_full);
  put_u64(out, st.n_tracked);
  put_u64(out, st.n_reseed);
  put_u64(out, st.period);
  put_f64(out, st.resid_early);
  put_f64(out, st.resid_late);
  put_u64(out, st.resid_early_n);
  put_u64(out, st.resid_late_n);
}

bool get_subspace(Reader& r, linalg::SubspaceTrackerState& st) {
  auto& b = st.basis;
  b.m = r.u32();
  b.k = r.u32();
  b.num_signals = r.u32();
  b.exact = r.u32() != 0;
  const std::size_t n_basis = r.u32();
  if (!r.ok || b.m > kMaxDim || b.k > kMaxDim || n_basis > kMaxDim * 2 ||
      !r.need(n_basis * 16))
    return r.ok = false;
  b.re.resize(n_basis);
  b.im.resize(n_basis);
  for (double& v : b.re) v = r.f64();
  for (double& v : b.im) v = r.f64();
  const std::size_t n_eig = r.u32();
  if (!r.ok || n_eig > kMaxDim || !r.need(n_eig * 8)) return r.ok = false;
  b.eigenvalues.resize(n_eig);
  for (double& v : b.eigenvalues) v = r.f64();

  st.m = r.u32();
  st.k = r.u32();
  const std::size_t n_w = r.u32();
  if (!r.ok || st.m > kMaxDim || st.k > kMaxDim || n_w > kMaxDim * 2 ||
      !r.need(n_w * 16))
    return r.ok = false;
  st.w.resize(n_w);
  for (cplx& v : st.w) v = r.c64();
  if (!r.matrix(st.last_full_v)) return false;
  st.noise_ref = r.f64();
  st.last_residual = r.f64();
  st.since_full = std::size_t(r.u64());
  st.n_full = r.u64();
  st.n_tracked = r.u64();
  st.n_reseed = r.u64();
  st.period = std::size_t(r.u64());
  st.resid_early = r.f64();
  st.resid_late = r.f64();
  st.resid_early_n = std::size_t(r.u64());
  st.resid_late_n = std::size_t(r.u64());
  // Shape contract SubspaceTracker::import_state relies on: the tracked
  // basis w is m x k with k <= m, the published basis mirrors it, and
  // the signal count fits inside it. A state that breaks any of these
  // would index past w / ritz on the next tracked update.
  if (st.k > st.m || st.w.size() != st.m * st.k || b.m != st.m ||
      b.k != st.k || b.re.size() != b.k * b.m || b.num_signals > b.k)
    return r.ok = false;
  return r.ok;
}

}  // namespace

std::vector<std::uint8_t> serialize_session(
    const service::LocationService::SessionState& st) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u32(out, std::uint32_t(st.client_id));
  put_u64(out, st.next_seq);

  put_u32(out, st.tracker.initialized ? 1 : 0);
  put_u32(out, st.tracker.last_rejected ? 1 : 0);
  put_f64(out, st.tracker.last_time);
  for (double v : st.tracker.state) put_f64(out, v);
  for (double v : st.tracker.cov) put_f64(out, v);

  put_u32(out, std::uint32_t(st.history.size()));
  for (const auto& ap_hist : st.history) {
    put_u32(out, std::uint32_t(ap_hist.size()));
    for (const auto& f : ap_hist) put_frame(out, f);
  }

  put_u32(out, std::uint32_t(st.subspace.size()));
  for (const auto& sub : st.subspace) put_subspace(out, sub);
  return out;
}

std::optional<service::LocationService::SessionState> deserialize_session(
    const std::vector<std::uint8_t>& bytes) {
  Reader r{bytes.data(), bytes.size()};
  if (r.u32() != kMagic || r.u32() != kVersion) return std::nullopt;

  service::LocationService::SessionState st;
  st.client_id = int(std::int32_t(r.u32()));
  st.next_seq = r.u64();

  st.tracker.initialized = r.u32() != 0;
  st.tracker.last_rejected = r.u32() != 0;
  st.tracker.last_time = r.f64();
  for (double& v : st.tracker.state) v = r.f64();
  for (double& v : st.tracker.cov) v = r.f64();
  if (!r.ok) return std::nullopt;

  const std::size_t n_aps = r.u32();
  if (!r.ok || n_aps > kMaxAps) return std::nullopt;
  st.history.resize(n_aps);
  for (auto& ap_hist : st.history) {
    const std::size_t n_frames = r.u32();
    if (!r.ok || n_frames > kMaxFrames) return std::nullopt;
    ap_hist.resize(n_frames);
    for (auto& f : ap_hist)
      if (!get_frame(r, f)) return std::nullopt;
  }

  const std::size_t n_sub = r.u32();
  if (!r.ok || n_sub > kMaxAps) return std::nullopt;
  st.subspace.resize(n_sub);
  for (auto& sub : st.subspace)
    if (!get_subspace(r, sub)) return std::nullopt;

  // Exact-size contract, like the wire decoder: trailing bytes mean a
  // framing disagreement somewhere upstream.
  if (!r.ok || r.off != r.n) return std::nullopt;
  return st;
}

}  // namespace arraytrack::cluster
