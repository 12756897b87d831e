// Distance kernel over the combined depot+sensor index space.
//
// Every layer of the reproduction — Algorithm 1's contracted MST,
// Algorithm 2's double-tree tours, the 2-opt/Or-opt polishers, and the
// simulator's per-dispatch costing — probes Euclidean distances on the
// same point set. `DistanceView` is the one kernel every tsp routine
// reads through. It computes geom::distance from the backing points on
// every probe (batched probes run one geom::simd row kernel), so no
// O(n²) table is ever built:
//
//   * `DistanceView::direct(...)` — a view over raw point spans;
//   * `DistanceOracle::dispatch_view(ids)` — the combined subspace
//     {all q depots} ∪ {q + id : id ∈ ids} of one dispatch set over a
//     network's stored points.
//
// Batched and per-probe reads are bit-identical (docs/ALGORITHMS.md §9),
// so a routine yields identical tours whichever view form it is handed;
// tests/tsp/oracle_test.cpp pins that equivalence.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace mwc::tsp {

/// Non-owning distance kernel over an indexed node set backed by raw
/// points. An optional index map re-labels local indices into the
/// backing space, which is how subset/dispatch views avoid copying.
class DistanceView {
 public:
  DistanceView() = default;

  /// View over a contiguous point span.
  static DistanceView direct(std::span<const geom::Point> points);

  /// View over the concatenation head ++ tail (the QRootedInstance
  /// depots-then-sensors layout, without the copy).
  static DistanceView direct(std::span<const geom::Point> head,
                             std::span<const geom::Point> tail);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Distance between local node indices i and j.
  double operator()(std::size_t i, std::size_t j) const {
    return geom::distance(backing_point(map_.empty() ? i : map_[i]),
                          backing_point(map_.empty() ? j : map_[j]));
  }

  /// Batched probes: out[k] = (*this)(i, js[k]) for every k. Gathers the
  /// coordinates and runs one geom::simd row kernel; bit-identical to
  /// per-probe operator().
  void distances_to(std::size_t i, std::span<const std::size_t> js,
                    double* out) const;

  /// Batched probes: out[k] = (*this)(as[k], bs[k]) for every k
  /// (as.size() == bs.size()).
  void distances_pairs(std::span<const std::size_t> as,
                       std::span<const std::size_t> bs, double* out) const;

  /// View over a subset of this view's nodes; `locals[k]` becomes node k
  /// of the returned view. Maps compose, so sub-views of sub-views keep
  /// reading the same backing points.
  DistanceView sub(std::vector<std::size_t> locals) const;

 private:
  std::span<const geom::Point> head_;
  std::span<const geom::Point> tail_;
  std::vector<std::size_t> map_;  ///< local -> backing index; empty = identity
  std::size_t size_ = 0;

  const geom::Point& backing_point(std::size_t i) const noexcept {
    return i < head_.size() ? head_[i] : tail_[i - head_.size()];
  }
};

/// A network's points in the combined index space: indices 0..q-1 are the
/// depots, q..q+m-1 the sensors, exactly the convention of
/// tsp::QRootedInstance. Stores the O(q + m) points and hands out views
/// over them; it caches no distances.
class DistanceOracle {
 public:
  DistanceOracle() = default;

  DistanceOracle(std::span<const geom::Point> depots,
                 std::span<const geom::Point> sensors);

  std::size_t size() const noexcept { return points_.size(); }

  /// All points in combined order (depots first).
  std::span<const geom::Point> points() const noexcept { return points_; }

  /// View over one dispatch set: all q depots followed by the sensors
  /// with the given ids (combined index q + id), i.e. the exact node
  /// space q_rooted_tsp runs on for that dispatch.
  DistanceView dispatch_view(std::span<const std::size_t> sensor_ids) const;

  /// Distance rows held in memory: always 0, since every probe reads the
  /// points directly. Kept for callers that report cache occupancy.
  std::size_t rows_materialized() const noexcept { return 0; }

 private:
  std::size_t q_ = 0;
  std::vector<geom::Point> points_;
};

}  // namespace mwc::tsp
