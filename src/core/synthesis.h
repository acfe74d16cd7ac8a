// AoA spectra synthesis: combining per-AP spectra into a position
// (paper 2.5). Likelihood of the client at x is the product of every
// AP's spectrum evaluated at the bearing from that AP to x; searched on
// a 10 cm grid, then refined with hill climbing from the top grid cells.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "aoa/spectrum.h"
#include "geom/vec2.h"

namespace arraytrack::core {

/// A processed spectrum together with the pose of the AP that made it.
struct ApSpectrum {
  geom::Vec2 ap_position;
  double orientation_rad = 0.0;
  aoa::AoaSpectrum spectrum;

  /// Spectrum value at the bearing from this AP toward world point x.
  double likelihood_toward(const geom::Vec2& x, double floor) const;
};

struct LocalizerOptions {
  double grid_step_m = 0.10;         // paper: 10 cm x 10 cm grid
  std::size_t hill_climb_starts = 3; // paper: top three grid positions
  double hill_climb_step_m = 0.05;
  double hill_climb_min_step_m = 0.001;
  std::size_t hill_climb_max_iters = 200;
  /// Per-AP likelihood floor: keeps one blocked or wrong-sided AP from
  /// zeroing the whole product (the paper's synthesis works because a
  /// disagreeing AP only weakens a location, it does not veto it).
  double floor = 0.05;
  /// Parallelism bound for the dense grid evaluation (heatmap(),
  /// locate_dense() and locate()'s dense fallback) and the server's
  /// per-AP fan-out, both serviced by the shared core::ThreadPool; 0 = the
  /// pool's full width, 1 = serial. Results are identical for every
  /// value (chunks write disjoint slots).
  std::size_t threads = 0;
};

struct LocationEstimate {
  geom::Vec2 position;
  double likelihood = 0.0;
};

/// Dense likelihood map over the search bounds (paper Fig. 14).
struct Heatmap {
  geom::Rect bounds;
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::vector<double> cells;  // row-major, y-major rows

  double at(std::size_t ix, std::size_t iy) const {
    return cells[iy * nx + ix];
  }
  geom::Vec2 cell_center(std::size_t ix, std::size_t iy) const;
  double max_value() const;
  /// ASCII rendering (top row = max y), for benches and examples.
  std::string to_ascii(std::size_t width = 72) const;
};

class Localizer {
 public:
  explicit Localizer(geom::Rect bounds, LocalizerOptions opt = {});

  const geom::Rect& bounds() const { return bounds_; }
  const LocalizerOptions& options() const { return opt_; }

  /// L(x) = prod_i P_i(theta_i(x)); equation 8.
  double likelihood(const std::vector<ApSpectrum>& aps,
                    const geom::Vec2& x) const;

  /// The dense float likelihood map: every cell evaluated with
  /// kernels::gather_lerp_product.
  Heatmap heatmap(const std::vector<ApSpectrum>& aps) const;

  /// Full pipeline: grid search, then hill climbing from the top
  /// `hill_climb_starts` cells. Empty input yields nullopt. The grid
  /// search is coarse-to-fine: every 16x16-cell block gets a certified
  /// bound on the integer scores of its cells (kernels::arc_max_accum
  /// over the round-up Q.6 log2 pair-max tables of
  /// linalg::coarse_log_table), only blocks whose bound clears the
  /// running threshold have their cells scored (kernels::score_accum),
  /// only the scored cells that can still reach the top K are
  /// evaluated with the float kernels, and refinement gets the same
  /// top-K order and bitwise-equal values the dense sweep would
  /// produce. Rows the bound cannot prune (degenerate or flat
  /// likelihoods) fall back to locate_dense(), so the result is always
  /// byte-identical to it.
  std::optional<LocationEstimate> locate(
      const std::vector<ApSpectrum>& aps) const;

  /// The same estimate from the dense float sweep: heatmap() over every
  /// cell, then refinement. locate()'s fallback for rows the coarse
  /// pass cannot prune, and the reference it is tested against.
  std::optional<LocationEstimate> locate_dense(
      const std::vector<ApSpectrum>& aps) const;

  /// locate() for each request of a batch; row j is locate(batch[j]).
  /// The rows share the bearing-LUT cache.
  std::vector<std::optional<LocationEstimate>> locate_batch(
      const std::vector<std::vector<ApSpectrum>>& batch) const;

  /// Coarse-to-fine accounting: cells skipped by the integer pass vs
  /// cells exactly evaluated with the float kernels (both cumulative
  /// across locate/locate_batch calls; a dense fallback row counts all
  /// its cells as refined), and cells given a coarse score at all
  /// (cumulative too, including rows that then fell back).
  std::uint64_t quant_pruned() const { return quant_pruned_.load(); }
  std::uint64_t quant_refined() const { return quant_refined_.load(); }
  std::uint64_t quant_scored() const { return quant_scored_.load(); }

 private:
  friend struct LocalizerTestPeer;  // oracle tests of the coarse pass

  /// Edge, in cells, of the square blocks the coarse pass bounds before
  /// it scores any cell. A 16-cell row segment of the int32 bearing LUT
  /// is one 64-byte line.
  static constexpr std::size_t kCoarseBlock = 16;

  LocationEstimate hill_climb(const std::vector<ApSpectrum>& aps,
                              geom::Vec2 start) const;

  /// Grid dimensions over the search bounds (cells left empty).
  Heatmap grid_shape() const;

  /// Hill-climb starts examined per row: the top-K cell count.
  std::size_t candidate_count(std::size_t ncells) const;

  /// Start selection + hill climbing over an already-built heatmap.
  LocationEstimate refine(const std::vector<ApSpectrum>& aps,
                          const Heatmap& map) const;

  /// Start selection + hill climbing over selected cells: `order`
  /// holds the already-selected top `candidates` cell indices, best
  /// first, `top_value` the likelihood of order[0], and `shape`
  /// carries bounds/nx/ny (its own cells are not read). Returns nullopt
  /// when start separation rejected too many candidates — the rare
  /// case that needs a full-grid ordering, which refine() builds and
  /// the quantized sweep, having never computed every cell, hands to
  /// locate_dense().
  std::optional<LocationEstimate> refine_cells(
      const std::vector<ApSpectrum>& aps, const Heatmap& shape,
      const std::vector<std::size_t>& order, std::size_t candidates,
      double top_value) const;

  /// Per-cell spectrum lookup, precomputed: the interpolation bin pair
  /// and lerp weight that AoaSpectrum::value_at would derive from the
  /// bearing toward the cell. Flat arrays so the heatmap inner loop is
  /// a branch-free gather + lerp + product (kernels::gather_lerp_product)
  /// instead of wrap_2pi + value_at per (cell, AP).
  /// Per kCoarseBlock x kCoarseBlock cell block (rows of blocks,
  /// partial at the grid's far edges), the circular bin arc
  /// [arc_lo, arc_lo + arc_len] that holds every cell's bin0: the full
  /// circle (0, bins - 1) when the block spans half of it or more.
  struct BearingLut {
    std::vector<std::int32_t> bin0, bin1;
    std::vector<double> frac;
    std::vector<std::int32_t> arc_lo, arc_len;
  };

  /// The lookup table from an AP pose toward every grid cell, cached
  /// per (pose, spectrum bin count): AP poses and the grid are fixed
  /// for the life of a server, so the atan2 per (cell, AP) — the
  /// dominant cost of the grid search — is paid once, not on every
  /// fix. The stored (bin, weight) pairs are exactly what the uncached
  /// value_at path computes, so results are unchanged.
  std::shared_ptr<const BearingLut> bearing_lut(const ApSpectrum& ap,
                                                std::size_t nx,
                                                std::size_t ny) const;

  /// Working set of one coarse-to-fine row, kept per thread and sized
  /// by the block count and the cells a row scores and evaluates, never
  /// by the grid's cell count.
  struct QuantScratch {
    std::vector<std::int32_t> bound;        // per block, without `base`
    std::vector<std::uint8_t> block_scored;
    std::vector<std::int32_t> score;        // coarse score per scored cell
    std::vector<std::uint32_t> cell;        // ... and its grid index
    std::vector<std::int32_t> kth;          // nth_element copy of scores
    std::vector<std::uint32_t> pos;         // positions into score/cell
    std::vector<std::size_t> top;           // top-K cells, ascending
    std::vector<std::size_t> extra;         // survivors outside top
    std::vector<std::size_t> survivors;     // top + extra, ascending
    std::vector<double> top_values, extra_values, values;
    std::vector<std::int32_t> b0, b1;       // exact evaluation gathers
    std::vector<double> fr;
    std::vector<std::size_t> order;
  };

  /// The coarse pass of one row: block bounds, then (A) the top-K
  /// cells by (coarse score desc, index asc) and (B) every cell whose
  /// score can still reach the dense top K, with exact float values.
  /// Fills s.top, s.survivors and s.values (survivor order) and
  /// returns true, or returns false when the row must fall back to
  /// the dense path (non-positive floor, degenerate likelihoods, or a
  /// flat surface). s.score holds every cell scored either way.
  bool quant_select(const std::vector<ApSpectrum>& aps,
                    QuantScratch& s) const;

  /// One row of the quantized coarse-to-fine sweep: quant_select, then
  /// refine_cells on the top-K order of the survivors — which is
  /// provably the order the dense float sweep would hand it. Returns
  /// nullopt when the row must fall back to the dense path (what
  /// quant_select refuses, or start under-seeding); the caller
  /// recomputes that row with locate_dense(), so the result is
  /// byte-identical either way.
  std::optional<LocationEstimate> locate_quant_row(
      const std::vector<ApSpectrum>& aps) const;

  geom::Rect bounds_;
  LocalizerOptions opt_;
  mutable std::atomic<std::uint64_t> quant_pruned_{0};
  mutable std::atomic<std::uint64_t> quant_refined_{0};
  mutable std::atomic<std::uint64_t> quant_scored_{0};

  // x, y, orientation, spectrum bins
  using LutKey = std::tuple<double, double, double, std::size_t>;
  mutable std::mutex cache_mutex_;
  mutable std::map<LutKey, std::shared_ptr<const BearingLut>> bearing_cache_;
};

}  // namespace arraytrack::core
