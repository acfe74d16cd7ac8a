#include "core/server.h"

#include <algorithm>
#include <iterator>
#include <optional>

#include "core/thread_pool.h"

namespace arraytrack::core {

ArrayTrackServer::ArrayTrackServer(geom::Rect bounds, ServerOptions opt)
    : opt_(opt), localizer_(bounds, opt.localizer) {}

void ArrayTrackServer::register_ap(const phy::AccessPointFrontEnd* ap) {
  Entry e;
  e.ap = ap;
  e.processor = std::make_unique<ApProcessor>(ap, opt_.pipeline);
  aps_.push_back(std::move(e));
}

std::size_t ArrayTrackServer::steering_table_bytes() const {
  std::size_t total = 0;
  for (const auto& entry : aps_)
    total += entry.processor->music().steering_table_bytes();
  return total;
}

void ArrayTrackServer::set_pipeline(const PipelineOptions& pipeline) {
  opt_.pipeline = pipeline;
  for (auto& entry : aps_)
    entry.processor = std::make_unique<ApProcessor>(entry.ap, pipeline);
}

std::vector<ApSpectrum> ArrayTrackServer::client_spectra(int client_id,
                                                         double now_s) const {
  return spectra_from_frames(snapshot_frames(client_id, now_s));
}

FrameGroup ArrayTrackServer::snapshot_frames(int client_id,
                                             double now_s) const {
  FrameGroup group(aps_.size());
  for (std::size_t i = 0; i < aps_.size(); ++i)
    group[i] = aps_[i].ap->buffer().recent_from(
        client_id, now_s, opt_.suppression.max_group_spacing_s);
  return group;
}

ClientSubspace ArrayTrackServer::make_client_subspace(
    linalg::SubspaceCounters* counters) const {
  ClientSubspace cs;
  cs.trackers_.reserve(aps_.size());
  for (const auto& entry : aps_)
    cs.trackers_.emplace_back(entry.processor->subspace_options(), counters);
  return cs;
}

std::vector<ApSpectrum> ArrayTrackServer::spectra_from_frames(
    const FrameGroup& frames, ClientSubspace* subspace) const {
  return std::move(spectra_from_frames_batch({&frames}, {subspace}).front());
}

std::vector<std::vector<ApSpectrum>> ArrayTrackServer::spectra_from_frames_batch(
    const std::vector<const FrameGroup*>& groups,
    const std::vector<ClientSubspace*>& subspaces) const {
  const std::size_t b = groups.size();
  const std::size_t n = aps_.size();
  // Per-AP pipelines (calibration -> MUSIC -> suppression) are
  // independent read-only work over disjoint front ends, so they fan
  // out across the shared pool. slots[i][j] holds job j's fused
  // spectrum at AP i; slots are compacted per job in registration
  // order afterwards, so the result is identical to the serial loop
  // for any pool width.
  std::vector<std::vector<std::optional<ApSpectrum>>> slots(
      n, std::vector<std::optional<ApSpectrum>>(b));
  ThreadPool::shared().parallel_for(
      0, n, opt_.localizer.threads, [&](std::size_t i) {
        const auto& entry = aps_[i];
        // Sharp spectra of every (job, frame) pair this AP heard: per
        // job, at most max_group of the newest frames (paper: two to
        // three).
        std::vector<aoa::AoaSpectrum> rows;
        std::vector<std::size_t> rows_of(b, 0);
        for (std::size_t j = 0; j < b; ++j) {
          if (i >= groups[j]->size()) continue;
          const auto& frames = (*groups[j])[i];
          if (frames.empty()) continue;
          linalg::SubspaceTracker* tracker =
              j < subspaces.size() && subspaces[j] != nullptr
                  ? subspaces[j]->tracker(i)
                  : nullptr;
          const std::size_t use =
              std::min(frames.size(), opt_.suppression.max_group);
          for (std::size_t k = frames.size() - use; k < frames.size(); ++k)
            rows.push_back(entry.processor->process_sharp(frames[k], tracker));
          rows_of[j] = use;
        }
        if (rows.empty()) return;

        // One blur pass over the whole stack, then per-row peak
        // normalization.
        entry.processor->finish_spectrum(rows);

        std::size_t cursor = 0;
        for (std::size_t j = 0; j < b; ++j) {
          if (!rows_of[j]) continue;
          std::vector<aoa::AoaSpectrum> group(
              std::make_move_iterator(rows.begin() + std::ptrdiff_t(cursor)),
              std::make_move_iterator(rows.begin() +
                                      std::ptrdiff_t(cursor + rows_of[j])));
          cursor += rows_of[j];
          aoa::AoaSpectrum fused =
              opt_.multipath_suppression
                  ? suppress_multipath(group, opt_.suppression)
                  : group.front();
          fused.normalize();
          ApSpectrum tagged;
          tagged.ap_position = entry.ap->array().position();
          tagged.orientation_rad = entry.ap->array().orientation();
          tagged.spectrum = std::move(fused);
          slots[i][j] = std::move(tagged);
        }
      });

  std::vector<std::vector<ApSpectrum>> out(b);
  for (std::size_t j = 0; j < b; ++j) {
    const std::size_t nj = std::min(n, groups[j]->size());
    out[j].reserve(nj);
    for (std::size_t i = 0; i < nj; ++i)
      if (slots[i][j]) out[j].push_back(std::move(*slots[i][j]));
  }
  return out;
}

std::vector<std::optional<LocationEstimate>>
ArrayTrackServer::locate_frames_batch(
    const std::vector<const FrameGroup*>& groups,
    const std::vector<ClientSubspace*>& subspaces) const {
  return localizer_.locate_batch(spectra_from_frames_batch(groups, subspaces));
}

std::optional<LocationEstimate> ArrayTrackServer::locate(int client_id,
                                                         double now_s) const {
  return locate_frames(snapshot_frames(client_id, now_s));
}

std::optional<LocationEstimate> ArrayTrackServer::locate_frames(
    const FrameGroup& frames, ClientSubspace* subspace) const {
  return locate_frames_batch({&frames}, {subspace}).front();
}

std::optional<Heatmap> ArrayTrackServer::heatmap(int client_id,
                                                 double now_s) const {
  const auto spectra = client_spectra(client_id, now_s);
  if (spectra.empty()) return std::nullopt;
  return localizer_.heatmap(spectra);
}

}  // namespace arraytrack::core
