#include "tsp/oracle.hpp"

#include "geom/simd.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mwc::tsp {

namespace {

bool is_identity(const std::vector<std::size_t>& map) {
  for (std::size_t i = 0; i < map.size(); ++i)
    if (map[i] != i) return false;
  return true;
}

}  // namespace

DistanceView DistanceView::direct(std::span<const geom::Point> points) {
  DistanceView view;
  view.head_ = points;
  view.size_ = points.size();
  return view;
}

DistanceView DistanceView::direct(std::span<const geom::Point> head,
                                  std::span<const geom::Point> tail) {
  DistanceView view;
  view.head_ = head;
  view.tail_ = tail;
  view.size_ = head.size() + tail.size();
  return view;
}

void DistanceView::distances_to(std::size_t i, std::span<const std::size_t> js,
                                double* out) const {
  // Gather coordinates once, run one row kernel.
  thread_local std::vector<double> gx, gy;
  gx.resize(js.size());
  gy.resize(js.size());
  for (std::size_t k = 0; k < js.size(); ++k) {
    const geom::Point& t = backing_point(map_.empty() ? js[k] : map_[js[k]]);
    gx[k] = t.x;
    gy[k] = t.y;
  }
  const geom::Point& p = backing_point(map_.empty() ? i : map_[i]);
  geom::simd::distance_row(p.x, p.y, gx.data(), gy.data(), out, js.size());
}

void DistanceView::distances_pairs(std::span<const std::size_t> as,
                                   std::span<const std::size_t> bs,
                                   double* out) const {
  MWC_DEBUG_ASSERT(as.size() == bs.size());
  thread_local std::vector<double> gax, gay, gbx, gby;
  gax.resize(as.size());
  gay.resize(as.size());
  gbx.resize(as.size());
  gby.resize(as.size());
  for (std::size_t k = 0; k < as.size(); ++k) {
    const geom::Point& pa = backing_point(map_.empty() ? as[k] : map_[as[k]]);
    const geom::Point& pb = backing_point(map_.empty() ? bs[k] : map_[bs[k]]);
    gax[k] = pa.x;
    gay[k] = pa.y;
    gbx[k] = pb.x;
    gby[k] = pb.y;
  }
  geom::simd::distance_pairs(gax.data(), gay.data(), gbx.data(), gby.data(),
                             out, as.size());
}

DistanceView DistanceView::sub(std::vector<std::size_t> locals) const {
  DistanceView view;
  view.head_ = head_;
  view.tail_ = tail_;
  view.size_ = locals.size();
  if (map_.empty()) {
    view.map_ = std::move(locals);
  } else {
    view.map_.reserve(locals.size());
    for (std::size_t local : locals) {
      MWC_DEBUG_ASSERT(local < size_);
      view.map_.push_back(map_[local]);
    }
  }
  // An identity map is pure per-probe overhead; the empty map means the
  // same thing for free.
  if (is_identity(view.map_)) view.map_.clear();
  return view;
}

DistanceOracle::DistanceOracle(std::span<const geom::Point> depots,
                               std::span<const geom::Point> sensors)
    : q_(depots.size()) {
  points_.reserve(depots.size() + sensors.size());
  points_.insert(points_.end(), depots.begin(), depots.end());
  points_.insert(points_.end(), sensors.begin(), sensors.end());
}

DistanceView DistanceOracle::dispatch_view(
    std::span<const std::size_t> sensor_ids) const {
  MWC_OBS_COUNT("oracle.dispatch_views");
  std::vector<std::size_t> subset;
  subset.reserve(q_ + sensor_ids.size());
  for (std::size_t l = 0; l < q_; ++l) subset.push_back(l);
  for (std::size_t id : sensor_ids) {
    MWC_DEBUG_ASSERT(q_ + id < size());
    subset.push_back(q_ + id);
  }
  return DistanceView::direct(points_).sub(std::move(subset));
}

}  // namespace mwc::tsp
