#include "core/suppression.h"

#include <algorithm>
#include <stdexcept>

namespace arraytrack::core {

namespace {

// Total power of `candidate`'s peaks that pair (within tolerance) with
// a peak in EVERY other spectrum of the group. `peaks[i]` is spectrum
// i's find_peaks list, computed once per group.
double paired_power(const std::vector<std::vector<aoa::Peak>>& peaks,
                    std::size_t candidate, const SuppressionOptions& opt,
                    std::vector<bool>* paired_out = nullptr) {
  const auto& mine = peaks[candidate];
  if (paired_out) paired_out->assign(mine.size(), false);
  double total = 0.0;
  for (std::size_t p = 0; p < mine.size(); ++p) {
    bool everywhere = true;
    for (std::size_t i = 0; i < peaks.size() && everywhere; ++i) {
      if (i == candidate) continue;
      bool found = false;
      for (const auto& other : peaks[i]) {
        if (aoa::bearing_distance(mine[p].bearing_rad, other.bearing_rad) <=
            opt.match_tolerance_rad) {
          found = true;
          break;
        }
      }
      everywhere = found;
    }
    if (everywhere) {
      total += mine[p].power;
      if (paired_out) (*paired_out)[p] = true;
    }
  }
  return total;
}

}  // namespace

aoa::AoaSpectrum suppress_multipath(const std::vector<aoa::AoaSpectrum>& group,
                                    const SuppressionOptions& opt) {
  if (group.empty())
    throw std::invalid_argument("suppress_multipath: empty group");

  if (group.size() < opt.min_group) return group.front();

  const std::size_t use =
      std::min(group.size(), std::max(opt.max_group, opt.min_group));
  std::vector<std::vector<aoa::Peak>> peaks(use);
  for (std::size_t i = 0; i < use; ++i)
    peaks[i] = group[i].find_peaks(opt.peak_floor);

  // Fig. 8 step 2 says "arbitrarily choose one AoA spectrum as the
  // primary"; we exploit that freedom and pick the spectrum whose peaks
  // pair best with the rest of the group — a frame caught in a deep
  // coherent fade has displaced peaks that pair with nothing, and
  // choosing it as primary would erase the direct path.
  std::size_t best = 0;
  double best_power = -1.0;
  for (std::size_t c = 0; c < use; ++c) {
    const double p = paired_power(peaks, c, opt);
    if (p > best_power) {
      best_power = p;
      best = c;
    }
  }

  std::vector<bool> paired;
  paired_power(peaks, best, opt, &paired);

  // If nothing pairs (every frame disagrees with every other), keep the
  // primary untouched: a multipath-rich spectrum still localizes better
  // than an empty one.
  aoa::AoaSpectrum primary = group[best];
  bool any = false;
  for (bool b : paired) any |= b;
  if (!any) return primary;

  for (std::size_t p = 0; p < paired.size(); ++p)
    if (!paired[p]) primary.remove_lobe(peaks[best][p].bearing_rad);
  return primary;
}

}  // namespace arraytrack::core
