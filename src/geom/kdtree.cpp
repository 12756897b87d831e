#include "geom/kdtree.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/assert.hpp"

namespace mwc::geom {

KdTree::KdTree(std::span<const Point> points)
    : points_(points.begin(), points.end()) {
  if (points_.empty()) return;
  nodes_.reserve(points_.size());
  std::vector<std::size_t> idx(points_.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  root_ = build(idx, 0, idx.size(), 0);
}

std::size_t KdTree::build(std::vector<std::size_t>& idx, std::size_t lo,
                          std::size_t hi, int depth) {
  if (lo >= hi) return kNull;
  const int axis = depth % 2;
  const std::size_t mid = lo + (hi - lo) / 2;
  std::nth_element(idx.begin() + lo, idx.begin() + mid, idx.begin() + hi,
                   [&](std::size_t a, std::size_t b) {
                     return axis == 0 ? points_[a].x < points_[b].x
                                      : points_[a].y < points_[b].y;
                   });
  const std::size_t node_id = nodes_.size();
  nodes_.push_back(Node{points_[idx[mid]], idx[mid], axis, kNull, kNull});
  // Children are built after push_back; re-index via node_id (vector may
  // reallocate during recursion, so never hold a reference across build()).
  const std::size_t left = build(idx, lo, mid, depth + 1);
  const std::size_t right = build(idx, mid + 1, hi, depth + 1);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

void KdTree::nn_search(std::size_t node, const Point& query,
                       std::size_t& best, double& best_d2) const {
  if (node == kNull) return;
  const Node& nd = nodes_[node];
  const double d2 = distance2(nd.p, query);
  if (d2 < best_d2) {
    best_d2 = d2;
    best = nd.original_index;
  }
  const double delta =
      nd.axis == 0 ? query.x - nd.p.x : query.y - nd.p.y;
  const std::size_t near_child = delta < 0.0 ? nd.left : nd.right;
  const std::size_t far_child = delta < 0.0 ? nd.right : nd.left;
  nn_search(near_child, query, best, best_d2);
  if (squared_norm(delta, 0.0) < best_d2)
    nn_search(far_child, query, best, best_d2);
}

std::pair<std::size_t, double> KdTree::nearest_with_distance(
    const Point& query) const {
  if (empty()) return {0, std::numeric_limits<double>::infinity()};
  std::size_t best = points_.size();
  double best_d2 = std::numeric_limits<double>::infinity();
  nn_search(root_, query, best, best_d2);
  MWC_ASSERT(best < points_.size());
  return {best, std::sqrt(best_d2)};
}

std::size_t KdTree::nearest(const Point& query) const {
  return nearest_with_distance(query).first;
}

void KdTree::knn_search(
    std::size_t node, const Point& query, std::size_t k,
    std::vector<std::pair<double, std::size_t>>& heap) const {
  if (node == kNull) return;
  const Node& nd = nodes_[node];
  const std::pair<double, std::size_t> entry{distance2(nd.p, query),
                                             nd.original_index};
  if (heap.size() < k) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end());
  } else if (entry < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = entry;
    std::push_heap(heap.begin(), heap.end());
  }
  const double delta =
      nd.axis == 0 ? query.x - nd.p.x : query.y - nd.p.y;
  const std::size_t near_child = delta < 0.0 ? nd.left : nd.right;
  const std::size_t far_child = delta < 0.0 ? nd.right : nd.left;
  knn_search(near_child, query, k, heap);
  // The far side can only contribute while the heap is short or the
  // splitting plane is no farther than the current k-th best. The bound
  // must be inclusive: a far-side point at *exactly* the k-th distance
  // with a smaller index wins the (d2, index) tie-break, and a strict
  // prune would discard it (tests/geom/soa_test.cpp pins the lists to a
  // brute-force reference under mass ties).
  if (heap.size() < k || squared_norm(delta, 0.0) <= heap.front().first)
    knn_search(far_child, query, k, heap);
}

std::vector<std::pair<std::size_t, double>> KdTree::knearest(
    const Point& query, std::size_t k) const {
  std::vector<std::pair<std::size_t, double>> result;
  if (empty() || k == 0) return result;
  // Max-heap of (squared distance, index); ordering by the pair breaks
  // exact distance ties deterministically on the smaller index.
  std::vector<std::pair<double, std::size_t>> heap;
  heap.reserve(std::min(k, points_.size()));
  knn_search(root_, query, k, heap);
  std::sort(heap.begin(), heap.end());
  result.reserve(heap.size());
  for (const auto& [d2, idx] : heap)
    result.emplace_back(idx, std::sqrt(d2));
  return result;
}

void KdTree::range_search(std::size_t node, const Point& query, double r2,
                          std::vector<std::size_t>& out) const {
  if (node == kNull) return;
  const Node& nd = nodes_[node];
  if (distance2(nd.p, query) <= r2) out.push_back(nd.original_index);
  const double delta =
      nd.axis == 0 ? query.x - nd.p.x : query.y - nd.p.y;
  const std::size_t near_child = delta < 0.0 ? nd.left : nd.right;
  const std::size_t far_child = delta < 0.0 ? nd.right : nd.left;
  range_search(near_child, query, r2, out);
  if (squared_norm(delta, 0.0) <= r2) range_search(far_child, query, r2, out);
}

std::vector<std::size_t> KdTree::within(const Point& query,
                                        double radius) const {
  std::vector<std::size_t> out;
  if (empty() || radius < 0.0) return out;
  range_search(root_, query, radius * radius, out);
  return out;
}

}  // namespace mwc::geom
