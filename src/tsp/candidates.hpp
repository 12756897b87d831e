// Candidate-graph layer for the tour pipeline: the k nearest neighbors of
// every node, computed once per instance from a spatial index and shared
// by all policies that plan over the same point set.
//
// The classical TSP-literature accelerant (Lin–Kernighan-style candidate
// lists): almost every improving 2-opt/Or-opt move and almost every MSF
// edge joins a node to one of its few nearest neighbors, so local search
// and Prim's relaxation only need to look at O(k) candidates per node
// instead of O(n). tsp::two_opt / tsp::or_opt walk these lists with
// don't-look bits (see improve.hpp) and tsp::q_rooted_msf prunes Prim to
// candidate + depot edges (see qrooted.hpp); both keep the dense sweep as
// the golden-reference fallback.
//
// Node indices are whatever space the points span uses — for the q-rooted
// pipeline that is the combined depot+sensor space of DistanceOracle /
// QRootedInstance, so one graph serves every tour of a round.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace mwc::tsp {

struct CandidateOptions {
  /// Neighbors kept per node. A dozen captures essentially every
  /// improving move on planar Euclidean instances (the golden suite in
  /// tests/tsp/candidates_test.cpp pins candidate tours within 1% of the
  /// exhaustive sweep at this default); k >= n-1 degenerates to the
  /// complete graph (see CandidateGraph::complete()).
  std::size_t k = 12;
};

/// Node-index remapping from a base graph's point space to a patched
/// one, driving CandidateGraph::repair. Removals compact the index
/// space in order (survivors keep their relative order); additions are
/// appended after the survivors.
struct CandidateRemap {
  static constexpr std::size_t kRemoved = static_cast<std::size_t>(-1);

  /// For each base node: its index in the patched space, or kRemoved.
  std::vector<std::size_t> old_to_new;
  /// Patched point count (survivors + additions).
  std::size_t new_size = 0;
  /// Patched-space ids whose geometry is new — added nodes and moved
  /// survivors. Their rows are re-queried, as is any row they disturb.
  std::vector<std::size_t> fresh;
};

/// Immutable k-nearest-neighbor lists over a fixed point set. Build once
/// per instance (O(n log n) via geom::KdTree), then neighbors(i) is a
/// zero-cost span lookup. Row i
/// holds min(k, n-1) neighbor indices sorted by ascending distance (ties
/// by ascending index), never including i itself.
class CandidateGraph {
 public:
  CandidateGraph() = default;

  /// Builds the graph. Counts one `tsp.cand.rebuilds` telemetry event.
  static CandidateGraph build(std::span<const geom::Point> points,
                              const CandidateOptions& options = {});

  /// Repairs `base` against a patched point set without re-querying
  /// every row: a row is re-queried only when its node is fresh, it
  /// references a removed/moved neighbor, or a fresh point breaks into
  /// its top-k; all other rows are index-remapped in place. The result
  /// is exactly CandidateGraph::build(new_points, options) — the dirty
  /// tests are conservative in the sorted-row sense, not approximate.
  /// Counts `tsp.cand.repairs` plus per-row reuse telemetry.
  static CandidateGraph repair(const CandidateGraph& base,
                               std::span<const geom::Point> new_points,
                               const CandidateRemap& remap,
                               const CandidateOptions& options = {});

  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  /// Neighbors actually stored per node: min(options.k, n-1).
  std::size_t k() const noexcept { return k_; }

  /// True when every node's candidate list holds all other nodes — the
  /// graph degenerates to the complete graph and candidate-pruned
  /// routines dispatch to their dense counterparts (bit-identical
  /// results by construction).
  bool complete() const noexcept { return n_ <= 1 || k_ + 1 >= n_; }

  /// Candidate neighbor indices of node i, ascending by distance.
  std::span<const std::size_t> neighbors(std::size_t i) const noexcept {
    return {flat_.data() + i * k_, k_};
  }

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::vector<std::size_t> flat_;  ///< n_ rows of k_ indices
};

}  // namespace mwc::tsp
