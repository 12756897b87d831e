// Local-search tour improvement: 2-opt and Or-opt.
//
// The paper's algorithms stop at the double-tree shortcut; these polishers
// are the library's optional extension (`bench/abl_tour_improvement`
// measures whether they change the MinTotalDistance-vs-Greedy story; they
// do not, both policies improve roughly equally).
//
// Two execution modes per polisher:
//   * candidate mode (default when `ImproveOptions::candidates` supplies a
//     CandidateGraph over the distance view's node space) — scans only
//     k-nearest candidate edges with don't-look bits and a
//     first-improvement queue, O(n·k) per pass;
//   * exhaustive mode (`ImproveOptions::exhaustive`, or whenever no usable
//     candidate graph is available) — the original full O(n²) sweep,
//     kept as the golden reference.
// A complete candidate graph (k >= n-1) dispatches to the exhaustive
// sweep, so results are bit-identical in that limit; with k ≈ 10 the
// candidate mode lands within a fraction of a percent of the sweep at a
// fraction of the cost (bench/micro_improve, BENCH_improve.json).
#pragma once

#include <cstddef>
#include <span>

#include "geom/point.hpp"
#include "tsp/candidates.hpp"
#include "tsp/oracle.hpp"
#include "tsp/tour.hpp"

namespace mwc::tsp {

struct ImproveOptions {
  std::size_t max_passes = 16;   ///< full sweeps before giving up
  double min_gain = 1e-9;        ///< ignore numerically-zero improvements

  /// Force the full O(n²) sweeps even when a candidate graph is set.
  bool exhaustive = false;

  /// Candidate graph over the *distance view's* node space (node indices
  /// of the graph and the view must coincide; tours may visit any subset
  /// of that space, so one graph serves all q tours of a round). Null, a
  /// size mismatch, or a complete() graph falls back to the exhaustive
  /// sweep. Non-owning; the caller keeps the graph alive.
  const CandidateGraph* candidates = nullptr;

  /// Tours smaller than this run the exhaustive sweep even in candidate
  /// mode. A subset tour sees only the fraction of each node's k nearest
  /// neighbors that landed in the same tour, so small tours get thin
  /// candidate coverage — and below ~50 nodes the O(n²) sweep is cheaper
  /// than the queue machinery anyway.
  std::size_t candidate_min_nodes = 48;

  /// Localized re-polish (candidate mode only): when non-null, only the
  /// listed nodes start with their don't-look bits cleared — everything
  /// else is presumed locally optimal until a move touches one of its
  /// tour edges. The incremental delta path seeds this with the nodes a
  /// patch moved plus their candidate neighbors, making re-polish of an
  /// already-polished tour O(k·|touched|) instead of O(n·k). Nodes
  /// outside the tour are ignored; the exhaustive sweep ignores the
  /// list entirely. Non-owning; the caller keeps the vector alive.
  const std::vector<std::size_t>* seed_nodes = nullptr;
};

// Every polisher exists in two forms: the DistanceView form is the
// implementation (one distance kernel), the point-span
// form wraps it in a direct-geometry view. Results are bit-identical.

/// 2-opt: repeatedly reverses segments while any reversal shortens the
/// tour. In-place; returns the total gain (>= 0).
double two_opt(Tour& tour, const DistanceView& distances,
               const ImproveOptions& opts = {});
double two_opt(Tour& tour, std::span<const geom::Point> points,
               const ImproveOptions& opts = {});

/// Or-opt: relocates segments of length 1..3 to better positions.
/// In-place; returns the total gain (>= 0). Tours with n <= seg_len + 2
/// skip that segment length (fewer than three outside nodes leave no
/// genuine relocation slot — only disguised 2-opt flips, which two_opt
/// already covers).
double or_opt(Tour& tour, const DistanceView& distances,
              const ImproveOptions& opts = {});
double or_opt(Tour& tour, std::span<const geom::Point> points,
              const ImproveOptions& opts = {});

/// 2-opt followed by Or-opt, iterated until neither improves.
double improve_tour(Tour& tour, const DistanceView& distances,
                    const ImproveOptions& opts = {});
double improve_tour(Tour& tour, std::span<const geom::Point> points,
                    const ImproveOptions& opts = {});

}  // namespace mwc::tsp
