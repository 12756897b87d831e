// Algorithms 1 and 2 of the paper: the exact q-rooted minimum spanning
// forest and the 2-approximate q-rooted TSP.
//
// Instance convention: nodes are indexed in a combined space where indices
// 0..q-1 are the q depots and q..q+m-1 are the m to-be-charged sensors.
// All edge lists, trees, and tours returned here use combined indices.
//
//   q-rooted MSF (exact, Lemma 1):
//     contract the q depots into one virtual root, take the MST of the
//     contracted complete graph, and un-contract — each virtual-root edge
//     maps back to the depot realizing the minimum distance.
//
//   q-rooted TSP (2-approximation, Theorem 1):
//     double each MSF tree's edges, take the Eulerian circuit, shortcut
//     repeated nodes. Each resulting closed tour contains its own depot
//     and the q tours jointly cover all sensors.
//
// Both stages accept an optional CandidateGraph over the combined node
// space (see candidates.hpp). The MSF then runs a lazy-heap Prim that
// only relaxes candidate sensor-sensor edges plus the virtual root's star
// (nearest-depot distance to every sensor, which keeps the pruned graph
// connected), and the polishers scan only candidate edges — the tour
// pipeline drops from O(n²) to O(n·k). sim::Simulator always supplies a
// graph. The dense paths remain as the golden reference and as the MSF's
// fallback when the candidate edges leave the sensors disconnected; a
// complete candidate graph dispatches to them for bit-identical results.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

#include "geom/point.hpp"
#include "graph/forest.hpp"
#include "tsp/candidates.hpp"
#include "tsp/improve.hpp"
#include "tsp/oracle.hpp"
#include "tsp/tour.hpp"

namespace mwc {
class ThreadPool;
}

namespace mwc::tsp {

/// Random-access, non-owning view of an instance's points in combined
/// order (depots first, then sensors). Valid as long as the backing
/// depot/sensor vectors are.
class CombinedPointsView {
 public:
  CombinedPointsView() = default;
  CombinedPointsView(std::span<const geom::Point> depots,
                     std::span<const geom::Point> sensors)
      : depots_(depots), sensors_(sensors) {}

  std::size_t size() const noexcept { return depots_.size() + sensors_.size(); }
  bool empty() const noexcept { return size() == 0; }

  const geom::Point& operator[](std::size_t i) const noexcept {
    return i < depots_.size() ? depots_[i] : sensors_[i - depots_.size()];
  }

  std::span<const geom::Point> depots() const noexcept { return depots_; }
  std::span<const geom::Point> sensors() const noexcept { return sensors_; }

  /// Direct-geometry distance kernel over this view's combined space.
  DistanceView distances() const {
    return DistanceView::direct(depots_, sensors_);
  }

  /// Materializes the combined order into a contiguous vector (for APIs
  /// that genuinely need a std::span of points).
  std::vector<geom::Point> materialize() const;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = geom::Point;
    using difference_type = std::ptrdiff_t;
    using pointer = const geom::Point*;
    using reference = const geom::Point&;

    iterator() = default;
    iterator(const CombinedPointsView* view, std::size_t index)
        : view_(view), index_(index) {}

    reference operator*() const { return (*view_)[index_]; }
    pointer operator->() const { return &(*view_)[index_]; }
    iterator& operator++() {
      ++index_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++index_;
      return copy;
    }
    bool operator==(const iterator& o) const = default;

   private:
    const CombinedPointsView* view_ = nullptr;
    std::size_t index_ = 0;
  };

  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

 private:
  std::span<const geom::Point> depots_;
  std::span<const geom::Point> sensors_;
};

/// A q-rooted instance: depot positions plus sensor positions.
struct QRootedInstance {
  std::vector<geom::Point> depots;
  std::vector<geom::Point> sensors;

  std::size_t q() const noexcept { return depots.size(); }
  std::size_t m() const noexcept { return sensors.size(); }
  std::size_t total_nodes() const noexcept { return q() + m(); }

  /// Position of combined-index node i.
  const geom::Point& point(std::size_t i) const noexcept {
    return i < depots.size() ? depots[i] : sensors[i - depots.size()];
  }

  /// All positions in combined order (depots first), as a zero-copy view.
  CombinedPointsView points() const noexcept { return {depots, sensors}; }

  /// Direct-geometry distance kernel over the combined space.
  DistanceView distances() const { return points().distances(); }
};

/// Result of Algorithm 1. trees[l] is rooted at depot l (combined index l);
/// depots that serve no sensors get an empty tree of just their root.
struct QRootedForest {
  std::vector<graph::RootedTree> trees;
  double total_weight = 0.0;
};

/// Exact q-rooted MSF (Algorithm 1) by dense Prim over the contracted
/// complete graph: the reference the candidate-pruned MSF is tested
/// against. Requires q >= 1.
QRootedForest q_rooted_msf(const QRootedInstance& instance);

/// Exact q-rooted MSF over any distance kernel whose combined node space
/// has nodes 0..q-1 as depots (e.g. a DistanceOracle::dispatch_view).
///
/// With a usable `candidates` graph (covering the combined space, not
/// complete()), Prim relaxes only candidate sensor-sensor edges plus the
/// virtual root's nearest-depot star through a lazy binary heap:
/// O((m·k + m) log m) time, O(m·k) memory. That forest is exact whenever
/// every MST edge of the contracted graph is a candidate or root-star
/// edge. When the sensors' candidate edges leave them disconnected (e.g.
/// more than k coincident sensors), some component could only be joined
/// through a non-candidate edge, so the call runs dense Prim over the
/// same view instead (O(m) memory) and counts `tsp.msf_dense_fallbacks`.
/// Without a usable graph it is dense Prim, bit-exact with the instance
/// overload.
QRootedForest q_rooted_msf(const DistanceView& distances, std::size_t q,
                           const CandidateGraph* candidates = nullptr);

/// Dirty-region repair of a q-rooted MSF. The base forest must live in
/// the *current* combined node space (when a patch removed/added nodes,
/// the caller remaps surviving tree edges first). Trees flagged dirty
/// are discarded and their sensors re-spanned; clean trees are kept
/// verbatim and treated as part of the contracted virtual root, so a
/// re-spanned sensor may attach to a depot directly or graft onto a
/// clean tree through one of its sensors.
struct MsfRepairPlan {
  /// Per-depot dirty flags (size q). A depot whose root is inactive
  /// must be flagged dirty (its sensors are re-homed elsewhere).
  std::vector<char> tree_dirty;
  /// Per-depot availability (size q, or empty for "all active"). An
  /// inactive depot keeps its combined index but attracts no sensors —
  /// the charger_down case. At least one depot must stay active.
  std::vector<char> root_active;
  /// Combined-space sensor ids in no base tree (nodes a patch added).
  std::vector<std::size_t> extra_sensors;
};

struct MsfRepairStats {
  std::size_t dirty_sensors = 0;  ///< sensors re-spanned by the repair
  std::size_t reused_trees = 0;   ///< clean trees copied verbatim
  std::size_t rebuilt_trees = 0;  ///< dirty or edge-gaining trees
  /// Per-depot flag (size q): 1 when the tree was rebuilt (it was dirty
  /// or gained grafted edges), 0 when copied verbatim from the base.
  std::vector<char> tree_changed;
};

/// Re-runs candidate-pruned Prim only over the dirty region (sensors of
/// dirty trees plus extra_sensors), attaching it to the clean remainder,
/// and merges the result with the untouched trees. With every tree dirty
/// this degenerates to a full (active-root) MSF, so it is total; with a
/// local patch it costs O(|dirty|·k log |dirty|) instead of O(m²).
/// Counts `tsp.repair.*` telemetry. `candidates` (over the combined
/// space) prunes both the dirty-dirty edges and the graft scan; null
/// scans densely (exact).
QRootedForest repair_q_rooted_msf(const DistanceView& distances,
                                  std::size_t q, const QRootedForest& base,
                                  const MsfRepairPlan& plan,
                                  const CandidateGraph* candidates = nullptr,
                                  MsfRepairStats* stats = nullptr);

/// Result of Algorithm 2. tours[l] starts at depot l; a tour of size one
/// (just the depot) means charger l stays home. Lengths use the Euclidean
/// metric on the instance points.
struct QRootedTours {
  std::vector<Tour> tours;
  double total_length = 0.0;
  /// The MSF the tours were built from (combined node space) — kept so
  /// incremental re-planning can key its dirty-region repair off the
  /// existing forest instead of re-deriving it.
  QRootedForest forest;
};

enum class TourConstruction {
  /// The paper's Algorithm 2: double each MSF tree, Euler tour, shortcut.
  kDoubleTree,
  /// Library extension: keep the MSF's sensor-to-depot grouping but build
  /// each group's tour with christofides_tour (ablation A7).
  kChristofides,
};

struct QRootedOptions {
  /// Apply 2-opt/Or-opt to each tour after construction (library
  /// extension, off by default to match the paper).
  bool improve = false;
  TourConstruction construction = TourConstruction::kDoubleTree;

  /// Polisher knobs. Its `candidates` pointer, when null, inherits the
  /// `candidates` graph below, so one graph drives both stages.
  ImproveOptions improve_options;

  /// Shared k-nearest-neighbor graph over the *combined* node space
  /// (depots + sensors). Non-owning. When set, the MSF runs
  /// candidate-pruned Prim and the polisher inherits the graph; null runs
  /// the dense reference paths.
  const CandidateGraph* candidates = nullptr;

  /// Build parameters for the graphs sim::Simulator builds per network
  /// and per dispatch set.
  CandidateOptions candidate_options;
};

/// 2-approximate q-rooted TSP (Algorithm 2). Requires q >= 1.
QRootedTours q_rooted_tsp(const QRootedInstance& instance,
                          const QRootedOptions& options = {});

/// 2-approximate q-rooted TSP over any distance kernel whose combined
/// node space has nodes 0..q-1 as depots. Tour node indices are local to
/// the view. Bit-exact with the instance overload for equal distances.
/// A non-null `polish_pool` runs the per-tour improvement phase across
/// the pool (one task per tour; results are deterministic because each
/// tour is polished independently). Callers already running inside a pool
/// task must pass null — nested parallel_for deadlocks a saturated pool.
QRootedTours q_rooted_tsp(const DistanceView& distances, std::size_t q,
                          const QRootedOptions& options = {},
                          ThreadPool* polish_pool = nullptr);

/// Validates the Theorem-1 structural guarantees: each tour is closed
/// through its own depot, tours are node-disjoint on sensors, and their
/// union covers every sensor. Test/assert helper.
bool covers_all_sensors(const QRootedInstance& instance,
                        const QRootedTours& tours);

/// Generalized q-rooted MSF where each "root" is an arbitrary entity with
/// a caller-supplied distance to every sensor (the variable-cycle
/// heuristic's auxiliary graphs G^(k) use whole *schedulings* as roots,
/// with root-to-sensor distance = nearest node of that scheduling).
///
/// Runs the same contraction: one virtual root whose distance to sensor s
/// is min over roots of root_dist(r, s); MST; un-contract. Returns which
/// sensors belong to each root's tree plus the forest weight. `groups[r]`
/// lists local sensor indices (0..m-1).
struct MultiRootAssignment {
  std::vector<std::vector<std::size_t>> groups;
  double total_weight = 0.0;
};

MultiRootAssignment q_rooted_msf_assign(
    std::size_t num_roots,
    const std::function<double(std::size_t, std::size_t)>& root_dist,
    std::span<const geom::Point> sensors);

}  // namespace mwc::tsp
