#include "linalg/kernels.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "core/simd.h"  // dependency-free leaf header (see its comment)

#if defined(__x86_64__) || defined(__i386__)
#define AT_KERNELS_X86 1
#include <immintrin.h>
#else
#define AT_KERNELS_X86 0
#endif

#if AT_KERNELS_X86 && (defined(__GNUC__) || defined(__clang__))
#define AT_TARGET_AVX2 __attribute__((target("avx2,fma")))
// AVX2 without FMA in the target ISA: for kernels whose bit-for-bit
// contract requires separate multiply/add (the batched blur FIR), the
// compiler must be unable to contract the mul+add intrinsic pair into
// a fused op, which -ffp-contract otherwise permits even for
// intrinsics.
#define AT_TARGET_AVX2_NOFMA __attribute__((target("avx2")))
#else
#define AT_TARGET_AVX2
#define AT_TARGET_AVX2_NOFMA
#endif

// Determinism note: every vector path below handles its remainder
// elements with scalar code whose rounding matches the full lanes
// op-for-op (std::fma where the lanes use fused ops, separate
// multiply/add where they do not). A cell or row therefore computes
// the same bits whether it lands in a full vector block or a tail,
// which is what keeps results independent of caller chunking (the
// thread pool splits the heatmap at arbitrary offsets).

namespace arraytrack::linalg::kernels {
namespace {

// ---------------------------------------------------------------- scalar

void projector_power_scalar(const SplitPlanes& t, const double* ev_re,
                            const double* ev_im, std::size_t nvec,
                            double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  for (std::size_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t s = 0; s < nvec; ++s) {
      const double* er = ev_re + s * m;
      const double* ei = ev_im + s * m;
      double ar = 0.0, ai = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double cr = tre[k * pitch + i];
        const double ci = tim[k * pitch + i];
        ar += cr * er[k] - ci * ei[k];
        ai += cr * ei[k] + ci * er[k];
      }
      acc += ar * ar + ai * ai;
    }
    out[i] = acc;
  }
}

void bartlett_power_scalar(const SplitPlanes& t, const cplx* r, double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  for (std::size_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double pj = tre[j * pitch + i];
      const double qj = tim[j * pitch + i];
      acc += r[j * m + j].real() * (pj * pj + qj * qj);
      for (std::size_t k = j + 1; k < m; ++k) {
        const double pk = tre[k * pitch + i];
        const double qk = tim[k * pitch + i];
        const double u = r[j * m + k].real();
        const double v = r[j * m + k].imag();
        // conj(a_j) R_jk a_k + its mirror term = 2 Re(conj(a_j) R_jk a_k).
        acc += 2.0 * (u * (pj * pk + qj * qk) - v * (pj * qk - qj * pk));
      }
    }
    out[i] = acc;
  }
}

void covariance_scalar(const SplitPlanes& x, cplx* r) {
  const std::size_t m = x.m, n = x.rows, pitch = x.pitch;
  const double* xre = x.re.data();
  const double* xim = x.im.data();
  const double inv_n = 1.0 / double(n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* pi = xre + i * pitch;
    const double* qi = xim + i * pitch;
    for (std::size_t j = i; j < m; ++j) {
      const double* pj = xre + j * pitch;
      const double* qj = xim + j * pitch;
      double re = 0.0, im = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        re += pi[k] * pj[k] + qi[k] * qj[k];
        im += qi[k] * pj[k] - pi[k] * qj[k];
      }
      if (j == i) im = 0.0;  // diagonal of x x^H is exactly real
      r[i * m + j] = cplx{re * inv_n, im * inv_n};
      if (j != i) r[j * m + i] = cplx{re * inv_n, -im * inv_n};
    }
  }
}

void forward_backward_scalar(const cplx* r, std::size_t m, cplx* out) {
  const std::size_t total = m * m;
  for (std::size_t t = 0; t < total; ++t)
    out[t] = 0.5 * (r[t] + std::conj(r[total - 1 - t]));
}

void gather_lerp_product_scalar(const double* power, const std::int32_t* bin0,
                                const std::int32_t* bin1, const double* frac,
                                std::size_t count, double floor,
                                double* cells) {
  for (std::size_t c = 0; c < count; ++c) {
    const double f = frac[c];
    const double v = (1.0 - f) * power[bin0[c]] + f * power[bin1[c]];
    cells[c] *= std::max(v, floor);
  }
}

void fir_batch_scalar(const double* in, std::size_t nrows, std::size_t nout,
                      const double* taps, std::size_t ntaps, double* out) {
  const std::size_t nin = nout + ntaps - 1;
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* row = in + r * nin;
    double* o = out + r * nout;
    for (std::size_t i = 0; i < nout; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < ntaps; ++j) acc += taps[j] * row[i + j];
      o[i] = acc;
    }
  }
}

#if AT_KERNELS_X86

// ------------------------------------------------------------- AVX2+FMA

AT_TARGET_AVX2
void projector_power_avx2(const SplitPlanes& t, const double* ev_re,
                          const double* ev_im, std::size_t nvec, double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t s = 0; s < nvec; ++s) {
      const double* er = ev_re + s * m;
      const double* ei = ev_im + s * m;
      __m256d ar = _mm256_setzero_pd(), ai = _mm256_setzero_pd();
      for (std::size_t k = 0; k < m; ++k) {
        const __m256d cr = _mm256_loadu_pd(tre + k * pitch + i);
        const __m256d ci = _mm256_loadu_pd(tim + k * pitch + i);
        const __m256d br = _mm256_set1_pd(er[k]);
        const __m256d bi = _mm256_set1_pd(ei[k]);
        ar = _mm256_fmadd_pd(cr, br, ar);
        ar = _mm256_fnmadd_pd(ci, bi, ar);
        ai = _mm256_fmadd_pd(cr, bi, ai);
        ai = _mm256_fmadd_pd(ci, br, ai);
      }
      acc = _mm256_fmadd_pd(ar, ar, acc);
      acc = _mm256_fmadd_pd(ai, ai, acc);
    }
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t s = 0; s < nvec; ++s) {
      const double* er = ev_re + s * m;
      const double* ei = ev_im + s * m;
      double ar = 0.0, ai = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double cr = tre[k * pitch + i];
        const double ci = tim[k * pitch + i];
        ar = std::fma(cr, er[k], ar);
        ar = std::fma(-ci, ei[k], ar);
        ai = std::fma(cr, ei[k], ai);
        ai = std::fma(ci, er[k], ai);
      }
      acc = std::fma(ar, ar, acc);
      acc = std::fma(ai, ai, acc);
    }
    out[i] = acc;
  }
}

AT_TARGET_AVX2
void bartlett_power_avx2(const SplitPlanes& t, const cplx* r, double* out) {
  const std::size_t rows = t.rows, m = t.m, pitch = t.pitch;
  const double* tre = t.re.data();
  const double* tim = t.im.data();
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const __m256d pj = _mm256_loadu_pd(tre + j * pitch + i);
      const __m256d qj = _mm256_loadu_pd(tim + j * pitch + i);
      const __m256d mag = _mm256_fmadd_pd(qj, qj, _mm256_mul_pd(pj, pj));
      acc = _mm256_fmadd_pd(mag, _mm256_set1_pd(r[j * m + j].real()), acc);
      for (std::size_t k = j + 1; k < m; ++k) {
        const __m256d pk = _mm256_loadu_pd(tre + k * pitch + i);
        const __m256d qk = _mm256_loadu_pd(tim + k * pitch + i);
        const __m256d dotr = _mm256_fmadd_pd(qj, qk, _mm256_mul_pd(pj, pk));
        const __m256d doti = _mm256_fnmadd_pd(qj, pk, _mm256_mul_pd(pj, qk));
        const __m256d u = _mm256_set1_pd(r[j * m + k].real());
        const __m256d v = _mm256_set1_pd(r[j * m + k].imag());
        const __m256d w = _mm256_fnmadd_pd(v, doti, _mm256_mul_pd(u, dotr));
        acc = _mm256_fmadd_pd(w, _mm256_set1_pd(2.0), acc);
      }
    }
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < rows; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double pj = tre[j * pitch + i];
      const double qj = tim[j * pitch + i];
      const double mag = std::fma(qj, qj, pj * pj);
      acc = std::fma(mag, r[j * m + j].real(), acc);
      for (std::size_t k = j + 1; k < m; ++k) {
        const double pk = tre[k * pitch + i];
        const double qk = tim[k * pitch + i];
        const double dotr = std::fma(qj, qk, pj * pk);
        const double doti = std::fma(-qj, pk, pj * qk);
        const double w = std::fma(-r[j * m + k].imag(), doti,
                                  r[j * m + k].real() * dotr);
        acc = std::fma(w, 2.0, acc);
      }
    }
    out[i] = acc;
  }
}

AT_TARGET_AVX2
double hsum4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // (l0+l2, l1+l3)
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

AT_TARGET_AVX2
void covariance_avx2(const SplitPlanes& x, cplx* r) {
  const std::size_t m = x.m, n = x.rows, pitch = x.pitch;
  const double* xre = x.re.data();
  const double* xim = x.im.data();
  const double inv_n = 1.0 / double(n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* pi = xre + i * pitch;
    const double* qi = xim + i * pitch;
    for (std::size_t j = i; j < m; ++j) {
      const double* pj = xre + j * pitch;
      const double* qj = xim + j * pitch;
      __m256d vre = _mm256_setzero_pd(), vim = _mm256_setzero_pd();
      std::size_t k = 0;
      for (; k + 4 <= n; k += 4) {
        const __m256d a = _mm256_loadu_pd(pi + k);
        const __m256d b = _mm256_loadu_pd(qi + k);
        const __m256d c = _mm256_loadu_pd(pj + k);
        const __m256d d = _mm256_loadu_pd(qj + k);
        vre = _mm256_fmadd_pd(a, c, vre);
        vre = _mm256_fmadd_pd(b, d, vre);
        vim = _mm256_fmadd_pd(b, c, vim);
        vim = _mm256_fnmadd_pd(a, d, vim);
      }
      double re = hsum4(vre), im = hsum4(vim);
      for (; k < n; ++k) {
        re = std::fma(pi[k], pj[k], re);
        re = std::fma(qi[k], qj[k], re);
        im = std::fma(qi[k], pj[k], im);
        im = std::fma(-pi[k], qj[k], im);
      }
      if (j == i) im = 0.0;  // diagonal of x x^H is exactly real
      r[i * m + j] = cplx{re * inv_n, im * inv_n};
      if (j != i) r[j * m + i] = cplx{re * inv_n, -im * inv_n};
    }
  }
}

AT_TARGET_AVX2
void forward_backward_avx2(const cplx* r, std::size_t m, cplx* out) {
  const std::size_t total = m * m;
  const double* d = reinterpret_cast<const double*>(r);
  double* o = reinterpret_cast<double*>(out);
  const __m256d conj_mask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t t = 0;
  for (; t + 2 <= total; t += 2) {
    const __m256d fwd = _mm256_loadu_pd(d + 2 * t);
    // Two complex values in descending order, then swap the 128-bit
    // halves so lane order matches [total-1-t, total-1-(t+1)].
    __m256d rev = _mm256_loadu_pd(d + 2 * (total - t - 2));
    rev = _mm256_permute2f128_pd(rev, rev, 0x01);
    rev = _mm256_xor_pd(rev, conj_mask);
    _mm256_storeu_pd(o + 2 * t, _mm256_mul_pd(_mm256_add_pd(fwd, rev), half));
  }
  for (; t < total; ++t)
    out[t] = 0.5 * (r[t] + std::conj(r[total - 1 - t]));
}

AT_TARGET_AVX2
void gather_lerp_product_avx2(const double* power, const std::int32_t* bin0,
                              const std::int32_t* bin1, const double* frac,
                              std::size_t count, double floor, double* cells) {
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d vfloor = _mm256_set1_pd(floor);
  // The all-lanes mask + zeroed source form of the gather: same
  // instruction, but avoids GCC's uninitialized-source expansion of
  // the plain _mm256_i32gather_pd macro.
  const __m256d gmask = _mm256_cmp_pd(ones, _mm256_setzero_pd(), _CMP_NEQ_OQ);
  std::size_t c = 0;
  for (; c + 4 <= count; c += 4) {
    const __m128i i0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bin0 + c));
    const __m128i i1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bin1 + c));
    const __m256d p0 =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), power, i0, gmask, 8);
    const __m256d p1 =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), power, i1, gmask, 8);
    const __m256d f = _mm256_loadu_pd(frac + c);
    const __m256d a = _mm256_mul_pd(_mm256_sub_pd(ones, f), p0);
    __m256d v = _mm256_fmadd_pd(f, p1, a);
    v = _mm256_max_pd(v, vfloor);
    _mm256_storeu_pd(cells + c, _mm256_mul_pd(_mm256_loadu_pd(cells + c), v));
  }
  for (; c < count; ++c) {
    const double f = frac[c];
    const double a = (1.0 - f) * power[bin0[c]];
    const double v = std::fma(f, power[bin1[c]], a);
    cells[c] *= std::max(v, floor);
  }
}

AT_TARGET_AVX2_NOFMA
void fir_batch_avx2(const double* in, std::size_t nrows, std::size_t nout,
                    const double* taps, std::size_t ntaps, double* out) {
  // Deliberately mul+add, in a target without FMA so the compiler
  // cannot contract the pair: bit-compatible with the scalar path,
  // which compiles portably and never fuses. Lanes hold consecutive
  // output samples of one row, each summing its taps in ascending
  // order. Each lane's taps form a serial add chain, so a block runs
  // eight accumulators (32 samples) to keep eight chains in flight.
  const std::size_t nin = nout + ntaps - 1;
  for (std::size_t r = 0; r < nrows; ++r) {
    const double* row = in + r * nin;
    double* o = out + r * nout;
    std::size_t i = 0;
    for (; i + 32 <= nout; i += 32) {
      __m256d a[8];
      for (int l = 0; l < 8; ++l) a[l] = _mm256_setzero_pd();
      const double* w = row + i;
      for (std::size_t j = 0; j < ntaps; ++j) {
        const __m256d t = _mm256_set1_pd(taps[j]);
        for (int l = 0; l < 8; ++l)
          a[l] = _mm256_add_pd(
              a[l], _mm256_mul_pd(t, _mm256_loadu_pd(w + j + 4 * l)));
      }
      for (int l = 0; l < 8; ++l) _mm256_storeu_pd(o + i + 4 * l, a[l]);
    }
    for (; i + 4 <= nout; i += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t j = 0; j < ntaps; ++j)
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(taps[j]),
                                               _mm256_loadu_pd(row + i + j)));
      _mm256_storeu_pd(o + i, acc);
    }
    for (; i < nout; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < ntaps; ++j) acc = acc + taps[j] * row[i + j];
      o[i] = acc;
    }
  }
}

#endif  // AT_KERNELS_X86

using core::simd::Level;

}  // namespace

void projector_power(const SplitPlanes& t, const double* ev_re,
                     const double* ev_im, std::size_t nvec, double* out) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2)
    return projector_power_avx2(t, ev_re, ev_im, nvec, out);
#endif
  projector_power_scalar(t, ev_re, ev_im, nvec, out);
}

void bartlett_power(const SplitPlanes& t, const cplx* r, double* out) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2)
    return bartlett_power_avx2(t, r, out);
#endif
  bartlett_power_scalar(t, r, out);
}

void covariance(const SplitPlanes& x, cplx* r) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2)
    return covariance_avx2(x, r);
#endif
  covariance_scalar(x, r);
}

void forward_backward(const cplx* r, std::size_t m, cplx* out) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2)
    return forward_backward_avx2(r, m, out);
#endif
  forward_backward_scalar(r, m, out);
}

void gather_lerp_product(const double* power, const std::int32_t* bin0,
                         const std::int32_t* bin1, const double* frac,
                         std::size_t count, double floor, double* cells) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2)
    return gather_lerp_product_avx2(power, bin0, bin1, frac, count, floor,
                                    cells);
#endif
  gather_lerp_product_scalar(power, bin0, bin1, frac, count, floor, cells);
}

void fir_batch(const double* in, std::size_t nrows, std::size_t nout,
               const double* taps, std::size_t ntaps, double* out) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2)
    return fir_batch_avx2(in, nrows, nout, taps, ntaps, out);
#endif
  fir_batch_scalar(in, nrows, nout, taps, ntaps, out);
}

}  // namespace arraytrack::linalg::kernels

// ------------------------------------------------------- coarse log table

namespace arraytrack::linalg {

namespace {

/// Round-up Q.6 upper bound on log2(v) for a finite normal v > 0,
/// without calling log2: split v = 2^e * 1.m, bound the mantissa by
/// the next 1/256 grid point above it, and look up a round-up table
/// of 64 * log2(1 + i/256). Overshoots the exact ceil by at most
/// 64 * log2(257/256) + 1 < 1.4 Q.6 steps; table construction is on
/// every locate's critical path, so the ~4 ns log2 per bin matters.
inline std::int32_t ceil_log2_q6_upper(double v) {
  static const auto kLut = [] {
    std::array<std::int32_t, 257> t{};
    for (int i = 0; i <= 256; ++i)
      t[std::size_t(i)] = std::int32_t(
          std::ceil(std::log2(1.0 + double(i) / 256.0) *
                    double(1 << CoarseLogTable::kFracBits)));
    return t;
  }();
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const std::int64_t e = std::int64_t((bits >> 52) & 0x7ff) - 1023;
  const std::uint32_t m = std::uint32_t((bits >> 44) & 0xff);
  return std::int32_t(e * (1 << CoarseLogTable::kFracBits)) + kLut[m + 1];
}

}  // namespace

CoarseLogTable coarse_log_table(const double* p, std::size_t bins,
                                double floor) {
  CoarseLogTable t;
  t.pairmax.resize(bins);
  // 1e-300 keeps the clamped values normal, which ceil_log2_q6_upper's
  // exponent extraction requires.
  const double lo = std::max(floor, 1e-300);
  for (std::size_t b = 0; b < bins; ++b) {
    const double p0 = std::max(p[b], lo);
    const double p1 = std::max(p[(b + 1) % bins], lo);
    // Round-up Q.6 log2 of the pair max: a certified upper bound on
    // log2 of any clamped lerp between the two bins.
    t.pairmax[b] = ceil_log2_q6_upper(std::max(p0, p1));
  }
  return t;
}

}  // namespace arraytrack::linalg

// ------------------------------------------------ coarse score kernels
//
// Determinism contract for the score_* kernels: they are exact int32
// adds, maxima and compares, so every dispatch level produces
// bitwise identical results by construction — stronger than the
// float kernels' 1e-9 cross-level contract.

namespace arraytrack::linalg::kernels {
namespace {

void score_accum_scalar(const std::int32_t* table, const std::int32_t* bin0,
                        std::size_t count, std::int32_t* score) {
  for (std::size_t c = 0; c < count; ++c) score[c] += table[bin0[c]];
}

#if AT_KERNELS_X86

AT_TARGET_AVX2
void score_accum_avx2(const std::int32_t* table, const std::int32_t* bin0,
                      std::size_t count, std::int32_t* score) {
  std::size_t c = 0;
  for (; c + 8 <= count; c += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bin0 + c));
    const __m256i vals = _mm256_i32gather_epi32(table, idx, 4);
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(score + c));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(score + c),
                        _mm256_add_epi32(cur, vals));
  }
  for (; c < count; ++c) score[c] += table[bin0[c]];
}

AT_TARGET_AVX2
std::int32_t score_max_avx2(const std::int32_t* v, std::size_t n) {
  std::int32_t best = v[0];
  std::size_t i = 0;
  if (n >= 8) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
    for (i = 8; i + 8 <= n; i += 8)
      acc = _mm256_max_epi32(
          acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (int l = 0; l < 8; ++l) best = std::max(best, lanes[l]);
  }
  for (; i < n; ++i) best = std::max(best, v[i]);
  return best;
}

AT_TARGET_AVX2
std::size_t score_count_ge_avx2(const std::int32_t* v, std::size_t n,
                                std::int32_t thr) {
  const __m256i lim = _mm256_set1_epi32(thr - 1);  // >= thr  <=>  > thr-1
  std::size_t count = 0, i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(x, lim)));
    count += std::size_t(__builtin_popcount(unsigned(mask)));
  }
  for (; i < n; ++i) count += v[i] >= thr;
  return count;
}

AT_TARGET_AVX2
std::size_t score_collect_ge_avx2(const std::int32_t* v, std::size_t n,
                                  std::int32_t thr, std::uint32_t* out) {
  const __m256i lim = _mm256_set1_epi32(thr - 1);
  std::size_t w = 0, i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    unsigned mask = unsigned(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(x, lim))));
    while (mask) {
      const unsigned l = unsigned(__builtin_ctz(mask));
      out[w++] = std::uint32_t(i + l);
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i)
    if (v[i] >= thr) out[w++] = std::uint32_t(i);
  return w;
}

AT_TARGET_AVX2
void window_max_avx2(const std::int32_t* prev, std::size_t n,
                     std::size_t half, std::int32_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i + half));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_max_epi32(a, b));
  }
  for (; i < n; ++i) out[i] = std::max(prev[i], prev[i + half]);
}

#endif  // AT_KERNELS_X86

/// One sparse-table level: out[i] = max(prev[i], prev[i + half]), the
/// maximum of the 2*half-wide window at i from two half-wide ones.
void window_max_scalar(const std::int32_t* prev, std::size_t n,
                       std::size_t half, std::int32_t* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = std::max(prev[i], prev[i + half]);
}

std::int32_t score_max_scalar(const std::int32_t* v, std::size_t n) {
  std::int32_t best = v[0];
  for (std::size_t i = 1; i < n; ++i) best = std::max(best, v[i]);
  return best;
}

std::size_t score_count_ge_scalar(const std::int32_t* v, std::size_t n,
                                  std::int32_t thr) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += v[i] >= thr;
  return count;
}

std::size_t score_collect_ge_scalar(const std::int32_t* v, std::size_t n,
                                    std::int32_t thr, std::uint32_t* out) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (v[i] >= thr) out[w++] = std::uint32_t(i);
  return w;
}

}  // namespace

void score_accum(const std::int32_t* table, const std::int32_t* bin0,
                 std::size_t count, std::int32_t* score) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2)
    return score_accum_avx2(table, bin0, count, score);
#endif
  score_accum_scalar(table, bin0, count, score);
}

std::int32_t score_max(const std::int32_t* v, std::size_t n) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2) return score_max_avx2(v, n);
#endif
  return score_max_scalar(v, n);
}

std::size_t score_count_ge(const std::int32_t* v, std::size_t n,
                           std::int32_t thr) {
#if AT_KERNELS_X86
  // The vector compare tests > thr-1, which wraps at INT32_MIN; that
  // threshold means "everything" anyway, so the scalar path takes it.
  if (core::simd::active() == Level::kAvx2 &&
      thr != std::numeric_limits<std::int32_t>::min())
    return score_count_ge_avx2(v, n, thr);
#endif
  return score_count_ge_scalar(v, n, thr);
}

std::size_t score_collect_ge(const std::int32_t* v, std::size_t n,
                             std::int32_t thr, std::uint32_t* out) {
#if AT_KERNELS_X86
  if (core::simd::active() == Level::kAvx2 &&
      thr != std::numeric_limits<std::int32_t>::min())
    return score_collect_ge_avx2(v, n, thr, out);
#endif
  return score_collect_ge_scalar(v, n, thr, out);
}

void arc_max_accum(const std::int32_t* table, std::size_t bins,
                   const std::int32_t* lo, const std::int32_t* len,
                   std::size_t narcs, std::int32_t* bound) {
  if (narcs == 0) return;
  // A full-circle arc (len == bins - 1) is answered by the table's one
  // maximum, so only partial arcs set how many levels the table needs.
  const std::int32_t full = std::int32_t(bins) - 1;
  std::int32_t widest = 0;
  bool any_full = false;
  for (std::size_t a = 0; a < narcs; ++a) {
    if (len[a] == full)
      any_full = true;
    else
      widest = std::max(widest, len[a]);
  }
  const std::int32_t table_max = any_full ? score_max(table, bins) : 0;
  // Level j holds the maxima of the 2^j-wide windows starting at each
  // bin; no partial arc piece is wider than widest + 1 bins.
  const std::size_t levels = std::size_t(std::bit_width(unsigned(widest) + 1));
  thread_local std::vector<std::int32_t> st;
  st.resize(levels * bins);
  std::copy(table, table + bins, st.begin());
  for (std::size_t j = 1; j < levels; ++j) {
    const std::size_t half = std::size_t(1) << (j - 1);
    const std::int32_t* prev = st.data() + (j - 1) * bins;
    std::int32_t* out = st.data() + j * bins;
    const std::size_t n = bins + 1 - 2 * half;
#if AT_KERNELS_X86
    if (core::simd::active() == Level::kAvx2) {
      window_max_avx2(prev, n, half, out);
      continue;
    }
#endif
    window_max_scalar(prev, n, half, out);
  }
  // Maximum over bins [a, b], a <= b < bins: two overlapping windows.
  const auto range_max = [&](std::size_t a, std::size_t b) {
    const std::size_t j = std::size_t(std::bit_width(b - a + 1)) - 1;
    const std::int32_t* level = st.data() + j * bins;
    return std::max(level[a], level[b + 1 - (std::size_t(1) << j)]);
  };
  for (std::size_t a = 0; a < narcs; ++a) {
    if (len[a] == full) {
      bound[a] += table_max;
      continue;
    }
    const std::size_t first = std::size_t(lo[a]);
    const std::size_t last = first + std::size_t(len[a]);
    bound[a] += last < bins ? range_max(first, last)
                            : std::max(range_max(first, bins - 1),
                                       range_max(0, last - bins));
  }
}

}  // namespace arraytrack::linalg::kernels
