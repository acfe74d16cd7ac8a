// SIMD kernel layer for the dense sweep loops: the MUSIC projector
// matvec, the Bartlett quadratic form, snapshot-covariance
// accumulation, forward-backward averaging, the heatmap
// gather+lerp+product, and the batched bearing-blur FIR. Each kernel
// ships a scalar reference path (also the path on CPUs without AVX2)
// plus an AVX2+FMA implementation selected at runtime via
// core::simd::active(); results at a fixed level are deterministic
// (bitwise identical for any caller chunking), and the AVX2 paths
// agree with the scalar reference to ~1e-9 relative (vector paths
// reassociate sums and use fused multiply-adds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/types.h"

namespace arraytrack::linalg {

/// Split-complex (structure-of-arrays) plane storage. Plane k holds
/// one antenna's value across all rows; element i of plane k lives at
/// [k * pitch + i]. Laying steering tables and snapshots out this way
/// turns the per-row complex multiply-accumulate into contiguous
/// real-valued FMA streams: a vector register holds the same antenna
/// for `width` adjacent rows, and the complex operand is broadcast.
struct SplitPlanes {
  std::size_t rows = 0;   // elements per plane (swept bins / snapshots)
  std::size_t m = 0;      // plane count (antennas)
  std::size_t pitch = 0;  // distance between planes (== rows)
  std::vector<double> re, im;

  SplitPlanes() = default;
  SplitPlanes(std::size_t rows_, std::size_t m_) { resize(rows_, m_); }

  void resize(std::size_t rows_, std::size_t m_) {
    rows = rows_;
    m = m_;
    pitch = rows_;
    re.assign(m * pitch, 0.0);
    im.assign(m * pitch, 0.0);
  }

  void set(std::size_t plane, std::size_t idx, cplx v) {
    re[plane * pitch + idx] = v.real();
    im[plane * pitch + idx] = v.imag();
  }
  cplx get(std::size_t plane, std::size_t idx) const {
    return {re[plane * pitch + idx], im[plane * pitch + idx]};
  }
};

/// Per-spectrum coarse table for the quantized position sweep: bin b
/// holds ceil(64 * log2(max(p[b], p[b+1 mod bins], floor))) — a
/// round-up fixed-point (Q.6) log2 of the *pair max* of the two bins a
/// bearing-LUT cell interpolates between. Because linear
/// interpolation never exceeds the larger endpoint and the heatmap
/// clamps at `floor`, summing these per-AP entries gives a certified
/// upper bound on 64 * log2 of the float likelihood product at every
/// cell — the guard band that makes coarse-to-fine pruning exact.
/// An entry overshoots the true per-cell log2 factor by at most the
/// pair's log2 ratio after floor clamping plus under two Q.6 steps of
/// rounding (tests/quant_test.cpp measures that bound).
struct CoarseLogTable {
  static constexpr int kFracBits = 6;
  std::vector<std::int32_t> pairmax;
};

CoarseLogTable coarse_log_table(const double* p, std::size_t bins,
                                double floor);

namespace kernels {

/// Signal-subspace power of every table row against `nvec` packed
/// complex vectors (vector s, component k at [s * t.m + k]):
///   out[i] = sum_{s < nvec} | sum_k t_k(i) * e_s(k) |^2
/// With t holding *conjugated* steering rows this is the projector
/// numerator of the MUSIC denominator, evaluated for all swept bins in
/// one pass over the table.
void projector_power(const SplitPlanes& t, const double* ev_re,
                     const double* ev_im, std::size_t nvec, double* out);

/// Bartlett quadratic form per table row against a Hermitian matrix
/// (row-major complex, t.m x t.m): out[i] = a_i^H R a_i, with a_i the
/// (unconjugated) steering vector in row i of the table.
void bartlett_power(const SplitPlanes& t, const cplx* r, double* out);

/// Snapshot covariance from split planes (plane i = antenna i over
/// x.rows snapshots): r[i * m + j] = (1/rows) sum_k x_i(k) conj(x_j(k)).
/// Only the upper triangle is accumulated; the lower is its exact
/// conjugate mirror (term-wise identical to accumulating it directly).
void covariance(const SplitPlanes& x, cplx* r);

/// Forward-backward average of a square complex matrix: with J the
/// exchange matrix, out = 0.5 * (r + J conj(r) J), i.e. flat element t
/// of out is 0.5 * (r[t] + conj(r[m*m - 1 - t])). `out` must not alias
/// `r`.
void forward_backward(const cplx* r, std::size_t m, cplx* out);

/// Heatmap likelihood product: for each cell c,
///   cells[c] *= max((1 - frac[c]) * power[bin0[c]]
///                     + frac[c] * power[bin1[c]], floor)
/// -- a branch-free gather + lerp + product over flat arrays. Cell
/// results are independent of how callers chunk the range: the vector
/// paths' remainder lanes round exactly like their full lanes.
void gather_lerp_product(const double* power, const std::int32_t* bin0,
                         const std::int32_t* bin1, const double* frac,
                         std::size_t count, double floor, double* cells);

/// Batched FIR filter over contiguous rows: row r of the input is the
/// nout + ntaps - 1 samples at in[r * (nout + ntaps - 1)], row r of
/// the output the nout samples at out[r * nout], and every output
/// sample accumulates taps in ascending order from zero:
///   out[r*nout + i] = sum_j taps[j] * in[r*(nout+ntaps-1) + i + j]
/// Callers express a circular convolution by pre-extending each row
/// with its wrapped edge samples (aoa::blur_rows). The vector path
/// runs its lanes across consecutive output samples of one row. Every
/// level performs separate multiply/add (never fused), so both levels
/// produce identical bits and each row matches the plain
/// tap-ascending multiply-add loop.
void fir_batch(const double* in, std::size_t nrows, std::size_t nout,
               const double* taps, std::size_t ntaps, double* out);

/// Coarse heatmap scoring pass: score[c] += table[bin0[c]] over int32
/// accumulators — the quantized, log-domain form of
/// gather_lerp_product (the product becomes a sum of round-up log2
/// pair-max entries from coarse_log_table, so one gather + add per
/// (cell, AP) replaces two gathers, a lerp, and a multiply). Integer
/// adds are associative, so every dispatch level is bitwise identical
/// by construction.
void score_accum(const std::int32_t* table, const std::int32_t* bin0,
                 std::size_t count, std::int32_t* score);

/// Selection helpers over coarse score arrays — exact integer
/// reductions, so every dispatch level is bitwise identical by
/// construction. score_max needs n >= 1; score_collect_ge writes the
/// indices with v[i] >= thr in ascending order into `out` (size it
/// with score_count_ge) and returns how many it wrote.
std::int32_t score_max(const std::int32_t* v, std::size_t n);
std::size_t score_count_ge(const std::int32_t* v, std::size_t n,
                           std::int32_t thr);
std::size_t score_collect_ge(const std::int32_t* v, std::size_t n,
                             std::int32_t thr, std::uint32_t* out);

/// Block bounds of the coarse sweep: for each of `narcs` circular bin
/// arcs, the bins lo[a], lo[a] + 1, ..., lo[a] + len[a] (mod bins),
///   bound[a] += max of table over those bins.
/// Needs 0 <= lo[a] < bins and 0 <= len[a] < bins. With `table` a
/// coarse_log_table and an arc holding every bin0 a cell block reads,
/// the sum over APs bounds every score_accum total in the block. A
/// full-circle arc (len[a] == bins - 1) adds the table's maximum. A
/// per-call sparse table of power-of-two window maxima (per-thread
/// scratch), only as deep as the widest partial arc needs, answers
/// each straight piece of a partial arc with two windows.
/// Exact int32 maxima and adds: every dispatch level is bitwise
/// identical by construction.
void arc_max_accum(const std::int32_t* table, std::size_t bins,
                   const std::int32_t* lo, const std::int32_t* len,
                   std::size_t narcs, std::int32_t* bound);

}  // namespace kernels
}  // namespace arraytrack::linalg
