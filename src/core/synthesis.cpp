#include "core/synthesis.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>

#include "core/thread_pool.h"
#include "linalg/kernels.h"

namespace arraytrack::core {

double ApSpectrum::likelihood_toward(const geom::Vec2& x, double floor) const {
  const double world_bearing = (x - ap_position).angle();
  const double local = wrap_2pi(world_bearing - orientation_rad);
  return std::max(spectrum.value_at(local), floor);
}

geom::Vec2 Heatmap::cell_center(std::size_t ix, std::size_t iy) const {
  const double sx = bounds.width() / double(nx);
  const double sy = bounds.height() / double(ny);
  return {bounds.min.x + (double(ix) + 0.5) * sx,
          bounds.min.y + (double(iy) + 0.5) * sy};
}

double Heatmap::max_value() const {
  return cells.empty() ? 0.0 : *std::max_element(cells.begin(), cells.end());
}

std::string Heatmap::to_ascii(std::size_t width) const {
  static const char kShades[] = " .:-=+*#%@";
  if (cells.empty() || nx == 0 || ny == 0) return "";
  const std::size_t height =
      std::max<std::size_t>(1, width * ny / (nx * 2));  // chars ~2:1 aspect
  const double top = max_value();
  std::ostringstream os;
  for (std::size_t r = 0; r < height; ++r) {
    // Top row shows max y.
    const std::size_t iy = (height - 1 - r) * ny / height;
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t ix = c * nx / width;
      const double v = top > 0.0 ? at(ix, iy) / top : 0.0;
      const int shade = std::min(9, int(v * 9.999));
      os << kShades[shade];
    }
    os << "\n";
  }
  return os.str();
}

Localizer::Localizer(geom::Rect bounds, LocalizerOptions opt)
    : bounds_(bounds), opt_(opt) {}

double Localizer::likelihood(const std::vector<ApSpectrum>& aps,
                             const geom::Vec2& x) const {
  double l = 1.0;
  for (const auto& ap : aps) l *= ap.likelihood_toward(x, opt_.floor);
  return l;
}

std::shared_ptr<const Localizer::BearingLut> Localizer::bearing_lut(
    const ApSpectrum& ap, std::size_t nx, std::size_t ny) const {
  const std::size_t bins = ap.spectrum.bins();
  const LutKey key{ap.ap_position.x, ap.ap_position.y, ap.orientation_rad,
                   bins};
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = bearing_cache_.find(key);
    if (it != bearing_cache_.end()) return it->second;
  }

  // Built outside the lock: two threads may race to build the same
  // table, but they produce identical values and the map keeps one.
  Heatmap probe;
  probe.bounds = bounds_;
  probe.nx = nx;
  probe.ny = ny;
  auto lut = std::make_shared<BearingLut>();
  lut->bin0.resize(nx * ny);
  lut->bin1.resize(nx * ny);
  lut->frac.resize(nx * ny);
  const double bin_width = kTwoPi / double(bins);
  // Block arcs, in the same pass: each cell's bin as a signed offset
  // from its block's first (top-left, so first visited) cell, mapped
  // into [-bins/2, bins/2]. Every bin0 of the block is then
  // ref + d (mod bins) for some d in [dmin, dmax], with no sort.
  const std::size_t nbx = (nx + kCoarseBlock - 1) / kCoarseBlock;
  const std::size_t nblocks = nbx * ((ny + kCoarseBlock - 1) / kCoarseBlock);
  const std::int32_t nbins = std::int32_t(bins), half = nbins / 2;
  std::vector<std::int32_t> ref(nblocks), dmin(nblocks, 0), dmax(nblocks, 0);
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const geom::Vec2 x = probe.cell_center(ix, iy);
      const double world = (x - ap.ap_position).angle();
      // Exactly AoaSpectrum::value_at's bin/weight derivation applied
      // to the bearing the uncached path would pass it.
      const double w = wrap_2pi(world - ap.orientation_rad) / bin_width;
      const std::size_t i0 = std::size_t(w) % bins;
      const std::size_t cell = iy * nx + ix;
      lut->bin0[cell] = std::int32_t(i0);
      lut->bin1[cell] = std::int32_t((i0 + 1) % bins);
      lut->frac[cell] = w - std::floor(w);

      const std::size_t b = iy / kCoarseBlock * nbx + ix / kCoarseBlock;
      if (ix % kCoarseBlock == 0 && iy % kCoarseBlock == 0) {
        ref[b] = std::int32_t(i0);
        continue;
      }
      std::int32_t d = std::int32_t(i0) - ref[b];
      if (d > half)
        d -= nbins;
      else if (d < -half)
        d += nbins;
      dmin[b] = std::min(dmin[b], d);
      dmax[b] = std::max(dmax[b], d);
    }
  lut->arc_lo.resize(nblocks);
  lut->arc_len.resize(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::int32_t len = dmax[b] - dmin[b];
    // A block spanning half the circle or more has the AP in or near
    // it; its offsets need not be the minimal arc, so take them all.
    const bool full = 2 * len >= nbins;
    lut->arc_lo[b] = full ? 0 : (ref[b] + dmin[b] + nbins) % nbins;
    lut->arc_len[b] = full ? nbins - 1 : len;
  }

  std::lock_guard<std::mutex> lock(cache_mutex_);
  // A handful of fixed AP poses is the expected population; a runaway
  // caller (e.g. sweeping synthetic poses) just flushes the cache.
  if (bearing_cache_.size() >= 64) bearing_cache_.clear();
  return bearing_cache_.emplace(key, std::move(lut)).first->second;
}

Heatmap Localizer::grid_shape() const {
  Heatmap shape;
  shape.bounds = bounds_;
  shape.nx = std::max<std::size_t>(
      1, std::size_t(bounds_.width() / opt_.grid_step_m));
  shape.ny = std::max<std::size_t>(
      1, std::size_t(bounds_.height() / opt_.grid_step_m));
  return shape;
}

std::size_t Localizer::candidate_count(std::size_t ncells) const {
  return std::min<std::size_t>(
      ncells, std::max<std::size_t>(
                  64, 32 * std::max<std::size_t>(1, opt_.hill_climb_starts)));
}

Heatmap Localizer::heatmap(const std::vector<ApSpectrum>& aps) const {
  Heatmap map = grid_shape();
  map.cells.assign(map.nx * map.ny, 1.0);

  std::vector<std::shared_ptr<const BearingLut>> luts(aps.size());
  for (std::size_t k = 0; k < aps.size(); ++k)
    if (!aps[k].spectrum.empty()) luts[k] = bearing_lut(aps[k], map.nx, map.ny);

  // Row chunks on the shared pool; every cell is an independent write,
  // and the kernel's remainder lanes round exactly like its full
  // lanes, so the chunking (and pool width) cannot change the result.
  ThreadPool::shared().parallel_ranges(
      map.ny, opt_.threads, [&](std::size_t y0, std::size_t y1) {
        const std::size_t c0 = y0 * map.nx;
        const std::size_t count = (y1 - y0) * map.nx;
        for (std::size_t k = 0; k < aps.size(); ++k) {
          if (!luts[k]) {
            // Empty spectrum: value_at reads 0, clamped to the floor.
            const double v = std::max(0.0, opt_.floor);
            for (std::size_t c = c0; c < c0 + count; ++c) map.cells[c] *= v;
            continue;
          }
          linalg::kernels::gather_lerp_product(
              aps[k].spectrum.values().data(), luts[k]->bin0.data() + c0,
              luts[k]->bin1.data() + c0, luts[k]->frac.data() + c0, count,
              opt_.floor, map.cells.data() + c0);
        }
      });
  return map;
}

LocationEstimate Localizer::hill_climb(const std::vector<ApSpectrum>& aps,
                                       geom::Vec2 start) const {
  geom::Vec2 pos = start;
  double best = likelihood(aps, pos);
  double step = opt_.hill_climb_step_m;
  std::size_t iters = 0;
  while (step >= opt_.hill_climb_min_step_m &&
         iters < opt_.hill_climb_max_iters) {
    ++iters;
    const geom::Vec2 candidates[4] = {{pos.x + step, pos.y},
                                      {pos.x - step, pos.y},
                                      {pos.x, pos.y + step},
                                      {pos.x, pos.y - step}};
    bool improved = false;
    for (const auto& c : candidates) {
      if (!bounds_.contains(c)) continue;
      const double l = likelihood(aps, c);
      if (l > best) {
        best = l;
        pos = c;
        improved = true;
      }
    }
    if (!improved) step *= 0.5;
  }
  return {pos, best};
}

namespace {

/// Cell order for start selection: value descending, index ascending.
/// Strict and total, so any top-K built under it is unique.
inline auto cell_order(const double* cells) {
  return [cells](std::size_t i, std::size_t j) {
    if (cells[i] != cells[j]) return cells[i] > cells[j];
    return i < j;
  };
}

/// Streaming bounded top-K insert: keeps `ord` sorted by cell_order
/// with at most `cap` entries. Feeding every cell index in ascending
/// order yields exactly the prefix that sorting all cells would —
/// without touching the rest of the grid.
inline void insert_top_cell(std::vector<std::size_t>& ord, std::size_t c,
                            const double* cells, std::size_t cap) {
  const auto better = cell_order(cells);
  if (ord.size() == cap && better(ord.back(), c)) return;
  ord.insert(std::upper_bound(ord.begin(), ord.end(), c, better), c);
  if (ord.size() > cap) ord.pop_back();
}

}  // namespace

LocationEstimate Localizer::refine(const std::vector<ApSpectrum>& aps,
                                   const Heatmap& map) const {
  const double* cells = map.cells.data();
  const std::size_t ncells = map.cells.size();
  const std::size_t candidates = candidate_count(ncells);
  std::vector<std::size_t> order;
  order.reserve(candidates + 1);
  for (std::size_t c = 0; c < ncells; ++c)
    insert_top_cell(order, c, cells, candidates);
  if (auto e = refine_cells(aps, map, order, candidates, cells[order[0]]))
    return *e;
  // Pathological spacing rejected most candidates; fall back to the
  // full ordering rather than under-seeding the hill climb.
  order.resize(ncells);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), cell_order(cells));
  return *refine_cells(aps, map, order, ncells, cells[order[0]]);
}

std::optional<LocationEstimate> Localizer::refine_cells(
    const std::vector<ApSpectrum>& aps, const Heatmap& shape,
    const std::vector<std::size_t>& order, std::size_t candidates,
    double top_value) const {
  // Top-K grid cells, separated so the starts are not adjacent cells
  // of the same mode; ties break toward the lower cell index to keep
  // start selection deterministic.
  auto pick_starts = [&](std::size_t limit) {
    std::vector<geom::Vec2> starts;
    for (std::size_t k = 0; k < limit; ++k) {
      if (starts.size() >= opt_.hill_climb_starts) break;
      const std::size_t cell = order[k];
      const geom::Vec2 p = shape.cell_center(cell % shape.nx, cell / shape.nx);
      bool close = false;
      for (const auto& s : starts)
        if (geom::distance(s, p) < 3.0 * opt_.grid_step_m) close = true;
      if (!close) starts.push_back(p);
    }
    return starts;
  };

  const std::size_t ncells = shape.nx * shape.ny;
  const std::vector<geom::Vec2> starts = pick_starts(order.size());
  if (starts.size() < opt_.hill_climb_starts && candidates < ncells) {
    // Pathological spacing rejected most candidates; the caller must
    // rebuild a full-grid ordering (which needs every cell value — the
    // quantized sweep never computed them, hence the bail-out).
    return std::nullopt;
  }

  std::optional<LocationEstimate> best;
  for (const auto& s : starts) {
    const LocationEstimate e = hill_climb(aps, s);
    if (!best || e.likelihood > best->likelihood) best = e;
  }
  if (!best) {
    // hill_climb_starts == 0: grid-only mode (latency ablation). The
    // grid has at least one cell, so order is never empty here.
    const std::size_t cell = order[0];
    best = LocationEstimate{
        shape.cell_center(cell % shape.nx, cell / shape.nx), top_value};
  }
  return best;
}

bool Localizer::quant_select(const std::vector<ApSpectrum>& aps,
                             QuantScratch& s) const {
  s.score.clear();
  s.cell.clear();
  const Heatmap shape = grid_shape();
  const std::size_t nx = shape.nx, ny = shape.ny, ncells = nx * ny;
  const std::size_t candidates = candidate_count(ncells);
  // The coarse pass works in log2 space, so it needs a positive floor
  // clamp; the default (0.05) qualifies, a zero/negative floor does not.
  if (opt_.floor <= 0.0 || candidates >= ncells) return false;

  std::vector<std::shared_ptr<const BearingLut>> owned(aps.size());
  std::vector<const BearingLut*> luts(aps.size(), nullptr);
  for (std::size_t k = 0; k < aps.size(); ++k)
    if (!aps[k].spectrum.empty()) {
      owned[k] = bearing_lut(aps[k], nx, ny);
      luts[k] = owned[k].get();
    }

  // Per-AP round-up log2 pair-max tables; empty spectra contribute a
  // constant factor per cell, folded into the threshold instead of
  // being added to every score or bound.
  const double empty_v = std::max(0.0, opt_.floor);
  std::int64_t base = 0;
  std::vector<linalg::CoarseLogTable> tables(aps.size());
  for (std::size_t k = 0; k < aps.size(); ++k) {
    if (!luts[k]) {
      base += std::int64_t(std::ceil(
          std::log2(empty_v) *
          double(1 << linalg::CoarseLogTable::kFracBits)));
      continue;
    }
    tables[k] = linalg::coarse_log_table(aps[k].spectrum.values().data(),
                                         aps[k].spectrum.bins(), opt_.floor);
  }

  // Block bounds: U_b = sum over APs of the largest pair-max entry on
  // the block's bin arc. Every cell of block b reads one entry of each
  // arc, so U_b >= each of its cells' coarse scores, and a block whose
  // bound misses a threshold holds no cell that meets it.
  const std::size_t nbx = (nx + kCoarseBlock - 1) / kCoarseBlock;
  const std::size_t nblocks = nbx * ((ny + kCoarseBlock - 1) / kCoarseBlock);
  s.bound.assign(nblocks, 0);
  for (std::size_t k = 0; k < aps.size(); ++k)
    if (luts[k])
      linalg::kernels::arc_max_accum(
          tables[k].pairmax.data(), tables[k].pairmax.size(),
          luts[k]->arc_lo.data(), luts[k]->arc_len.data(), nblocks,
          s.bound.data());
  s.block_scored.assign(nblocks, 0);
  const auto block_extent = [&](std::size_t b) {
    const std::size_t x0 = b % nbx * kCoarseBlock;
    const std::size_t y0 = b / nbx * kCoarseBlock;
    return std::tuple{x0, y0, std::min(kCoarseBlock, nx - x0),
                      std::min(kCoarseBlock, ny - y0)};
  };
  // Integer scores of one block's cells, appended to the compact
  // arrays: one 4-byte gather + add per (cell, AP) against the float
  // path's two 8-byte gathers, a lerp, and a multiply.
  const auto score_block = [&](std::size_t b) {
    s.block_scored[b] = 1;
    const auto [x0, y0, w, h] = block_extent(b);
    const std::size_t n0 = s.score.size();
    s.score.resize(n0 + w * h, 0);
    s.cell.resize(n0 + w * h);
    for (std::size_t r = 0; r < h; ++r) {
      const std::size_t c0 = (y0 + r) * nx + x0;
      std::int32_t* row = s.score.data() + n0 + r * w;
      for (std::size_t i = 0; i < w; ++i)
        s.cell[n0 + r * w + i] = std::uint32_t(c0 + i);
      for (std::size_t k = 0; k < aps.size(); ++k)
        if (luts[k])
          linalg::kernels::score_accum(tables[k].pairmax.data(),
                                       luts[k]->bin0.data() + c0, w, row);
    }
  };

  // Phase A: the top `candidates` cells by (score desc, index asc).
  // Seed with the highest-bound blocks until `candidates` cells carry
  // a score; their K-th best score s_K is <= the grid's. Any cell
  // scoring >= s_K lies in a block with U_b >= s_K, so after scoring
  // those blocks every unscored cell ranks below K scored ones, and
  // the scored cells' top K is the grid's.
  while (s.score.size() < candidates) {
    std::size_t best = nblocks;
    for (std::size_t b = 0; b < nblocks; ++b)
      if (!s.block_scored[b] && (best == nblocks || s.bound[b] > s.bound[best]))
        best = b;
    score_block(best);
  }
  s.kth.assign(s.score.begin(), s.score.end());
  std::nth_element(s.kth.begin(),
                   s.kth.begin() + std::ptrdiff_t(candidates - 1),
                   s.kth.end(), std::greater<>());
  const std::int32_t s_k = s.kth[candidates - 1];
  for (std::size_t b = 0; b < nblocks; ++b)
    if (!s.block_scored[b] && s.bound[b] >= s_k) score_block(b);

  // Select over the compact scores: probe a widening margin below the
  // maximum with vector count passes until `candidates` cells clear it,
  // bisect the bracket a few steps to keep the tie set small, then
  // trim by (score desc, index asc).
  const auto thr32 = [](std::int64_t t) {
    return std::int32_t(std::clamp<std::int64_t>(
        t, std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int32_t>::max()));
  };
  const std::int32_t* score = s.score.data();
  const std::size_t nscored = s.score.size();
  const std::int32_t smax = linalg::kernels::score_max(score, nscored);
  std::int64_t dlo = 0, dhi = 64;
  while (linalg::kernels::score_count_ge(
             score, nscored, thr32(std::int64_t(smax) - dhi)) < candidates) {
    dlo = dhi;
    dhi *= 2;
  }
  for (int step = 0; step < 3 && dhi - dlo > 1; ++step) {
    const std::int64_t mid = dlo + (dhi - dlo) / 2;
    if (linalg::kernels::score_count_ge(
            score, nscored, thr32(std::int64_t(smax) - mid)) >= candidates)
      dhi = mid;
    else
      dlo = mid;
  }
  const std::int32_t ta = thr32(std::int64_t(smax) - dhi);
  s.pos.resize(linalg::kernels::score_count_ge(score, nscored, ta));
  linalg::kernels::score_collect_ge(score, nscored, ta, s.pos.data());
  if (s.pos.size() > candidates) {
    std::nth_element(s.pos.begin(),
                     s.pos.begin() + std::ptrdiff_t(candidates), s.pos.end(),
                     [&](std::uint32_t i, std::uint32_t j) {
                       if (score[i] != score[j]) return score[i] > score[j];
                       return s.cell[i] < s.cell[j];
                     });
    s.pos.resize(candidates);
  }
  s.top.clear();
  for (std::uint32_t p : s.pos) s.top.push_back(s.cell[p]);
  std::sort(s.top.begin(), s.top.end());

  // Exact values with the float kernels, compacted: per-cell chains in
  // gather_lerp_product are position-independent, so these values are
  // bitwise what the dense sweep would write at those cells.
  const auto exact_eval = [&](const std::vector<std::size_t>& cells_idx,
                              std::vector<double>& vals) {
    const std::size_t n = cells_idx.size();
    vals.assign(n, 1.0);
    s.b0.resize(n);
    s.b1.resize(n);
    s.fr.resize(n);
    for (std::size_t k = 0; k < aps.size(); ++k) {
      if (!luts[k]) {
        for (auto& x : vals) x *= empty_v;
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = cells_idx[i];
        s.b0[i] = luts[k]->bin0[c];
        s.b1[i] = luts[k]->bin1[c];
        s.fr[i] = luts[k]->frac[c];
      }
      linalg::kernels::gather_lerp_product(
          aps[k].spectrum.values().data(), s.b0.data(), s.b1.data(),
          s.fr.data(), n, opt_.floor, vals.data());
    }
  };
  exact_eval(s.top, s.top_values);

  const double exact_min =
      *std::min_element(s.top_values.begin(), s.top_values.end());
  // Zero/denormal products would need -inf log thresholds; hand the
  // row back to the dense path rather than reasoning about them.
  if (!(exact_min > 0.0) || !std::isfinite(exact_min)) return false;

  // Phase B: the K-th largest exact value of the full grid is >= the
  // minimum of any K exactly-evaluated cells, so every cell the dense
  // sweep would rank into its top K satisfies
  //   score[c] + base >= 64 * log2(f_c) >= 64 * log2(exact_min) >= Lq,
  // with one Q.6 step subtracted to absorb double log2 rounding.
  // Cells below the threshold are *provably* outside the dense top-K,
  // and so is every block whose bound is below it.
  // (Clamping tb into int32 only ever widens the survivor set.)
  const std::int64_t lq =
      std::int64_t(std::ceil(
          std::log2(exact_min) *
          double(1 << linalg::CoarseLogTable::kFracBits))) -
      1;
  const std::int32_t tb = thr32(lq - base);
  // Weak pruning (flat likelihoods): when the blocks that can hold a
  // survivor cover most of the grid, the dense sweep is cheaper.
  std::size_t reach = 0;
  for (std::size_t b = 0; b < nblocks; ++b)
    if (s.bound[b] >= tb) {
      const auto [x0, y0, w, h] = block_extent(b);
      reach += w * h;
    }
  if (reach > ncells / 2) return false;
  for (std::size_t b = 0; b < nblocks; ++b)
    if (!s.block_scored[b] && s.bound[b] >= tb) score_block(b);

  const std::size_t nall = s.score.size();
  s.pos.resize(linalg::kernels::score_count_ge(s.score.data(), nall, tb));
  linalg::kernels::score_collect_ge(s.score.data(), nall, tb, s.pos.data());
  s.extra.clear();
  for (std::uint32_t p : s.pos)
    if (!std::binary_search(s.top.begin(), s.top.end(),
                            std::size_t(s.cell[p])))
      s.extra.push_back(s.cell[p]);
  std::sort(s.extra.begin(), s.extra.end());
  if (!s.extra.empty()) exact_eval(s.extra, s.extra_values);

  // top and extra are each ascending and disjoint, so merging them
  // (values alongside) keeps the survivors ascending.
  const std::size_t survivors = s.top.size() + s.extra.size();
  s.survivors.resize(survivors);
  s.values.resize(survivors);
  for (std::size_t i = 0, j = 0, o = 0; o < survivors; ++o) {
    const bool from_top =
        j == s.extra.size() || (i < s.top.size() && s.top[i] < s.extra[j]);
    s.survivors[o] = from_top ? s.top[i] : s.extra[j];
    s.values[o] = from_top ? s.top_values[i++] : s.extra_values[j++];
  }
  return true;
}

std::optional<LocationEstimate> Localizer::locate_quant_row(
    const std::vector<ApSpectrum>& aps) const {
  thread_local QuantScratch s;
  const bool selected = quant_select(aps, s);
  quant_scored_.fetch_add(s.score.size(), std::memory_order_relaxed);
  std::optional<LocationEstimate> e;
  if (selected) {
    // The survivors contain every dense-top-K cell with bitwise-equal
    // values, so the streaming top-K over them fed in ascending index
    // order reproduces the dense pass's `order` exactly. Survivor
    // positions ascend with cell index, so ranking positions by value
    // ranks the cells.
    const Heatmap shape = grid_shape();
    const std::size_t ncells = shape.nx * shape.ny;
    const std::size_t candidates = candidate_count(ncells);
    s.order.clear();
    s.order.reserve(candidates + 1);
    for (std::size_t p = 0; p < s.survivors.size(); ++p)
      insert_top_cell(s.order, p, s.values.data(), candidates);
    const double top_value = s.values[s.order[0]];
    for (auto& p : s.order) p = s.survivors[p];
    e = refine_cells(aps, shape, s.order, candidates, top_value);
    if (e) {
      quant_refined_.fetch_add(s.survivors.size(), std::memory_order_relaxed);
      quant_pruned_.fetch_add(ncells - s.survivors.size(),
                              std::memory_order_relaxed);
    }
  }
  // A flat row can score much of the grid; keep no grid-sized scratch.
  constexpr std::size_t kRetainCells = 32 * kCoarseBlock * kCoarseBlock;
  if (s.score.capacity() > kRetainCells ||
      s.survivors.capacity() > kRetainCells)
    s = QuantScratch{};
  return e;
}

std::optional<LocationEstimate> Localizer::locate(
    const std::vector<ApSpectrum>& aps) const {
  if (aps.empty()) return std::nullopt;
  if (auto e = locate_quant_row(aps)) return e;
  const Heatmap shape = grid_shape();
  quant_refined_.fetch_add(shape.nx * shape.ny, std::memory_order_relaxed);
  return locate_dense(aps);
}

std::optional<LocationEstimate> Localizer::locate_dense(
    const std::vector<ApSpectrum>& aps) const {
  if (aps.empty()) return std::nullopt;
  return refine(aps, heatmap(aps));
}

std::vector<std::optional<LocationEstimate>> Localizer::locate_batch(
    const std::vector<std::vector<ApSpectrum>>& batch) const {
  std::vector<std::optional<LocationEstimate>> out;
  out.reserve(batch.size());
  for (const auto& aps : batch) out.push_back(locate(aps));
  return out;
}

}  // namespace arraytrack::core
