#include "tsp/candidates.hpp"

#include <algorithm>

#include "geom/kdtree.hpp"
#include "geom/simd.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mwc::tsp {

namespace {

/// Writes the self-excluded k-nearest row for node i. The spatial index
/// is queried for k+1 neighbors because node i itself (distance 0) is
/// among them; any *other* zero-distance duplicate stays a legitimate
/// candidate.
template <typename KnnFn>
void fill_row(std::size_t i, std::size_t k, const KnnFn& knn,
              std::vector<std::size_t>& flat) {
  const auto hits = knn(k + 1);
  std::size_t written = 0;
  for (const auto& [idx, dist] : hits) {
    (void)dist;
    if (idx == i) continue;
    flat[i * k + written] = idx;
    if (++written == k) break;
  }
  MWC_ASSERT_MSG(written == k, "knearest returned too few neighbors");
}

}  // namespace

CandidateGraph CandidateGraph::repair(const CandidateGraph& base,
                                      std::span<const geom::Point> new_points,
                                      const CandidateRemap& remap,
                                      const CandidateOptions& options) {
  MWC_ASSERT_MSG(remap.old_to_new.size() == base.size(),
                 "remap.old_to_new size mismatch");
  MWC_ASSERT_MSG(remap.new_size == new_points.size(),
                 "remap.new_size mismatch");
  const std::size_t n = new_points.size();
  const std::size_t k = n > 0 ? std::min(options.k, n - 1) : 0;
  // A k regime change (tiny instances, or the base was complete) shifts
  // every row; fall back to the full build.
  if (base.empty() || k != base.k() || base.complete())
    return build(new_points, options);

  MWC_OBS_SCOPE("tsp.cand_repair");
  MWC_OBS_COUNT("tsp.cand.repairs");

  std::vector<std::size_t> new_to_old(n, CandidateRemap::kRemoved);
  for (std::size_t i = 0; i < remap.old_to_new.size(); ++i) {
    const std::size_t ni = remap.old_to_new[i];
    if (ni == CandidateRemap::kRemoved) continue;
    MWC_ASSERT_MSG(ni < n, "remap.old_to_new out of range");
    new_to_old[ni] = i;
  }
  std::vector<char> is_fresh(n, 0);
  for (std::size_t f : remap.fresh) {
    MWC_ASSERT_MSG(f < n, "remap.fresh out of range");
    is_fresh[f] = 1;
  }

  CandidateGraph graph;
  graph.n_ = n;
  graph.k_ = k;
  graph.flat_.assign(n * k, 0);

  // Fresh-point coordinates, deinterleaved once: the break-in scan below
  // evaluates every clean row against the same fresh set, so it becomes
  // one SIMD squared-distance row per survivor.
  const std::size_t nf = remap.fresh.size();
  std::vector<double> fx(nf), fy(nf), fd2(nf);
  for (std::size_t t = 0; t < nf; ++t) {
    fx[t] = new_points[remap.fresh[t]].x;
    fy[t] = new_points[remap.fresh[t]].y;
  }

  const geom::KdTree index(new_points);
  std::size_t repaired = 0;
  std::vector<std::size_t> row(k);
  for (std::size_t v = 0; v < n; ++v) {
    bool dirty = new_to_old[v] == CandidateRemap::kRemoved || is_fresh[v];
    if (!dirty) {
      const auto old_row = base.neighbors(new_to_old[v]);
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t nn = remap.old_to_new[old_row[j]];
        if (nn == CandidateRemap::kRemoved || is_fresh[nn]) {
          dirty = true;
          break;
        }
        row[j] = nn;
      }
    }
    if (!dirty) {
      // Survivor distances are unchanged and compaction preserves index
      // order, so the remapped row stays sorted; it is exact unless a
      // fresh point now beats its k-th entry (ties break on index). One
      // batched squared-distance row over the fresh set, then the
      // original comparison loop in the original order (bit-identical —
      // the kernel's per-lane arithmetic is geom::distance2).
      const double kth = geom::distance2(new_points[v], new_points[row[k - 1]]);
      geom::simd::distance2_row(new_points[v].x, new_points[v].y, fx.data(),
                                fy.data(), fd2.data(), nf);
      for (std::size_t t = 0; t < nf; ++t) {
        const std::size_t f = remap.fresh[t];
        if (f == v) continue;
        if (fd2[t] < kth || (fd2[t] == kth && f < row[k - 1])) {
          dirty = true;
          break;
        }
      }
    }
    if (dirty) {
      ++repaired;
      fill_row(v, k,
               [&](std::size_t kk) { return index.knearest(new_points[v], kk); },
               graph.flat_);
    } else {
      std::copy(row.begin(), row.end(), graph.flat_.begin() + v * k);
    }
  }
  MWC_OBS_COUNT_N("tsp.cand.repaired_rows", repaired);
  MWC_OBS_COUNT_N("tsp.cand.reused_rows", n - repaired);
  return graph;
}

CandidateGraph CandidateGraph::build(std::span<const geom::Point> points,
                                     const CandidateOptions& options) {
  MWC_OBS_SCOPE("tsp.cand_build");
  MWC_OBS_COUNT("tsp.cand.rebuilds");
  CandidateGraph graph;
  graph.n_ = points.size();
  graph.k_ = graph.n_ > 0 ? std::min(options.k, graph.n_ - 1) : 0;
  if (graph.k_ == 0) return graph;
  graph.flat_.assign(graph.n_ * graph.k_, 0);

  const geom::KdTree index(points);
  for (std::size_t i = 0; i < graph.n_; ++i)
    fill_row(i, graph.k_,
             [&](std::size_t k) { return index.knearest(points[i], k); },
             graph.flat_);
  return graph;
}

}  // namespace mwc::tsp
