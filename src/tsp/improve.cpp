#include "tsp/improve.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mwc::tsp {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

double dist(const DistanceView& d, std::size_t a, std::size_t b) {
  return d(a, b);
}

/// Locally accumulated telemetry, flushed once per polisher call so the
/// move-evaluation loops stay free of atomic traffic.
struct ImproveCounts {
  std::uint64_t passes = 0;
  std::uint64_t probes = 0;
  std::uint64_t cand_evals = 0;  ///< candidate-list edges examined
  std::uint64_t moves = 0;       ///< accepted improving moves

  void flush() const {
    MWC_OBS_COUNT_N("tsp.improve_passes", passes);
    MWC_OBS_COUNT_N("tsp.improve.moves", moves);
    MWC_OBS_COUNT_N("tsp.cand.hits", cand_evals);
    MWC_OBS_COUNT_N("oracle.probes", probes);
  }
};

/// True when `opts` selects the candidate path for a tour of `tour_size`
/// nodes over a view of `view_size`: a caller-supplied graph over the
/// same node space that is not degenerate-complete (complete graphs
/// dispatch to the exhaustive sweep so the k >= n limit stays
/// bit-identical with it), and a tour large enough for candidate pruning
/// to pay off (see ImproveOptions::candidate_min_nodes).
bool use_candidates(const ImproveOptions& opts, std::size_t tour_size,
                    std::size_t view_size) {
  return !opts.exhaustive && opts.candidates != nullptr &&
         opts.candidates->size() == view_size &&
         !opts.candidates->complete() &&
         tour_size >= opts.candidate_min_nodes;
}

// ---------------------------------------------------------------------------
// Exhaustive sweeps (golden reference).

double two_opt_exhaustive(Tour& tour, const DistanceView& points,
                          const ImproveOptions& opts, ImproveCounts& counts) {
  auto& order = tour.order();
  const std::size_t n = order.size();

  double total_gain = 0.0;
  for (std::size_t pass = 0; pass < opts.max_passes; ++pass) {
    ++counts.passes;
    bool improved = false;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      // j+1 wraps; skip adjacent pairs.
      for (std::size_t j = i + 2; j < n; ++j) {
        if (i == 0 && j == n - 1) continue;  // same edge pair
        counts.probes += 4;
        // Re-read endpoints each step: an accepted reversal earlier in
        // this pass changes order[i+1..].
        const std::size_t a = order[i];
        const std::size_t b = order[i + 1];
        const std::size_t c = order[j];
        const std::size_t d = order[(j + 1) % n];
        const double before = dist(points, a, b) + dist(points, c, d);
        const double after = dist(points, a, c) + dist(points, b, d);
        if (before - after > opts.min_gain) {
          std::reverse(order.begin() + i + 1, order.begin() + j + 1);
          total_gain += before - after;
          ++counts.moves;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  return total_gain;
}

double or_opt_exhaustive(Tour& tour, const DistanceView& points,
                         const ImproveOptions& opts, ImproveCounts& counts) {
  auto& order = tour.order();
  const std::size_t n = order.size();

  double total_gain = 0.0;
  for (std::size_t pass = 0; pass < opts.max_passes; ++pass) {
    ++counts.passes;
    bool improved = false;
    // n >= seg_len + 3: with fewer than three outside nodes the only
    // "relocation" is a disguised 2-opt flip (two_opt's job), and tiny
    // tours fall through to no segment length at all.
    for (std::size_t seg_len = 1; seg_len <= 3 && n >= seg_len + 3;
         ++seg_len) {
      for (std::size_t i = 0; i + seg_len <= n; ++i) {
        // Segment order[i .. i+seg_len-1] (no wraparound).
        const std::size_t p = order[(i + n - 1) % n];
        const std::size_t s0 = order[i];
        const std::size_t s1 = order[i + seg_len - 1];
        const std::size_t q = order[(i + seg_len) % n];
        if (p == s1 || q == s0) continue;  // segment is the whole tour
        const double removal_gain = dist(points, p, s0) +
                                    dist(points, s1, q) - dist(points, p, q);
        counts.probes += 3;
        if (removal_gain <= opts.min_gain) continue;

        // Tour with the segment removed; try every insertion slot in it.
        std::vector<std::size_t> rest;
        rest.reserve(n - seg_len);
        rest.insert(rest.end(), order.begin(), order.begin() + i);
        rest.insert(rest.end(), order.begin() + i + seg_len, order.end());
        const std::size_t r = rest.size();

        double best_delta = -opts.min_gain;
        std::size_t best_slot = r;  // insert after rest[best_slot]
        for (std::size_t j = 0; j < r; ++j) {
          const std::size_t u = rest[j];
          const std::size_t v = rest[(j + 1) % r];
          const double insertion_cost = dist(points, u, s0) +
                                        dist(points, s1, v) -
                                        dist(points, u, v);
          counts.probes += 3;
          const double delta = insertion_cost - removal_gain;  // < 0 good
          if (delta < best_delta) {
            best_delta = delta;
            best_slot = j;
          }
        }
        if (best_slot == r) continue;

        std::vector<std::size_t> seg(order.begin() + i,
                                     order.begin() + i + seg_len);
        rest.insert(rest.begin() + best_slot + 1, seg.begin(), seg.end());
        order = std::move(rest);
        total_gain += -best_delta;
        ++counts.moves;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return total_gain;
}

// ---------------------------------------------------------------------------
// Candidate-list mode: O(n·k) per pass. Tours may visit any subset of the
// node space, so positions are tracked in a space-sized array with kNpos
// marking nodes outside this tour (their candidates are skipped).

/// Fills pos[node] = tour index for the tour's nodes.
void index_positions(const std::vector<std::size_t>& order,
                     std::vector<std::size_t>& pos) {
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
}

double two_opt_candidates(Tour& tour, const DistanceView& points,
                          const CandidateGraph& cand,
                          const ImproveOptions& opts,
                          ImproveCounts& counts) {
  auto& order = tour.order();
  const std::size_t n = order.size();

  std::vector<std::size_t> pos(points.size(), kNpos);
  index_positions(order, pos);

  // First-improvement work queue seeded in tour order (or with just the
  // caller's seed_nodes for a localized re-polish); a node leaves the
  // queue once it yields no improving move (its don't-look bit) and
  // re-enters when one of its tour edges changes.
  std::vector<std::size_t> queue;
  std::vector<char> in_queue(points.size(), 0);
  if (opts.seed_nodes != nullptr) {
    for (std::size_t v : *opts.seed_nodes) {
      if (v < pos.size() && pos[v] != kNpos && !in_queue[v]) {
        in_queue[v] = 1;
        queue.push_back(v);
      }
    }
  } else {
    queue = order;
    for (std::size_t v : order) in_queue[v] = 1;
  }
  std::size_t head = 0;

  // Safety valve mirroring the sweep version's pass cap; local search
  // terminates on its own (each move shortens the tour by > min_gain).
  const std::size_t max_steps = opts.max_passes * n * 8 + 64;
  std::size_t steps = 0;

  // Scratch for the batched candidate scans (reused across steps).
  std::vector<std::size_t> cs, es;
  std::vector<double> d_ac, d_ce, d_be;

  double total_gain = 0.0;
  while (head < queue.size() && steps < max_steps) {
    const std::size_t a = queue[head++];
    in_queue[a] = 0;

    bool again = true;
    while (again && steps < max_steps) {
      ++steps;
      again = false;
      // Best-improvement over a's whole candidate neighborhood: scanning
      // all k rows costs the same as first-improvement without a sorted
      // break (which would hide moves whose gain comes from the other new
      // edge, d_be < d_ce while d_ac >= d_ab), and applying the single
      // best move is far less order-dependent, so candidate mode lands in
      // local optima much closer to the exhaustive sweep's.
      double best_gain = opts.min_gain;
      std::size_t best_lo = 0;
      std::size_t best_hi = 0;
      std::size_t best_b = 0;
      std::size_t best_c = 0;
      std::size_t best_e = 0;
      // Both tour edges at a: dir 0 pairs successors, dir 1 predecessors.
      for (int dir = 0; dir < 2; ++dir) {
        const std::size_t pa = pos[a];
        const std::size_t b = dir == 0 ? order[(pa + 1) % n]
                                       : order[(pa + n - 1) % n];
        const double d_ab = dist(points, a, b);
        ++counts.probes;
        // Gather the valid (c, e) pairs in candidate-row order, batch
        // the three distance arrays through the SIMD kernels, then
        // replay the original selection loop over the results — same
        // comparisons in the same order, so the chosen move (and hence
        // the tour) is bit-identical to the per-probe scan.
        cs.clear();
        es.clear();
        for (const std::size_t c : cand.neighbors(a)) {
          ++counts.cand_evals;
          if (pos[c] == kNpos || c == b) continue;
          const std::size_t pc = pos[c];
          const std::size_t e = dir == 0 ? order[(pc + 1) % n]
                                         : order[(pc + n - 1) % n];
          if (e == a) continue;
          cs.push_back(c);
          es.push_back(e);
        }
        if (cs.empty()) continue;
        d_ac.resize(cs.size());
        d_ce.resize(cs.size());
        d_be.resize(cs.size());
        points.distances_to(a, cs, d_ac.data());
        points.distances_pairs(cs, es, d_ce.data());
        points.distances_to(b, es, d_be.data());
        counts.probes += 3 * cs.size();
        for (std::size_t t = 0; t < cs.size(); ++t) {
          const double gain = d_ab + d_ce[t] - d_ac[t] - d_be[t];
          if (gain <= best_gain) continue;

          // Removed edges sit at tour positions lo/hi; reversing the
          // inner segment installs (a,c) and (b,e).
          const std::size_t pc = pos[cs[t]];
          std::size_t lo = dir == 0 ? pa : (pa + n - 1) % n;
          std::size_t hi = dir == 0 ? pc : (pc + n - 1) % n;
          if (lo > hi) std::swap(lo, hi);
          best_gain = gain;
          best_lo = lo;
          best_hi = hi;
          best_b = b;
          best_c = cs[t];
          best_e = es[t];
        }
      }
      if (best_gain > opts.min_gain) {
        std::reverse(order.begin() + best_lo + 1, order.begin() + best_hi + 1);
        for (std::size_t t = best_lo + 1; t <= best_hi; ++t)
          pos[order[t]] = t;
        total_gain += best_gain;
        ++counts.moves;
        for (const std::size_t v : {a, best_b, best_c, best_e}) {
          if (!in_queue[v]) {
            in_queue[v] = 1;
            queue.push_back(v);
          }
        }
        again = true;  // rescan a with its fresh tour edges
      }
    }
  }
  counts.passes += steps / n + 1;  // queue steps, normalized to sweep units
  return total_gain;
}

double or_opt_candidates(Tour& tour, const DistanceView& points,
                         const CandidateGraph& cand,
                         const ImproveOptions& opts, ImproveCounts& counts) {
  auto& order = tour.order();
  const std::size_t n = order.size();

  std::vector<std::size_t> pos(points.size(), kNpos);
  index_positions(order, pos);
  std::vector<char> dont_look(points.size(), 0);
  if (opts.seed_nodes != nullptr) {
    // Localized re-polish: every node starts asleep except the seeds.
    for (std::size_t v : order) dont_look[v] = 1;
    for (std::size_t v : *opts.seed_nodes)
      if (v < pos.size() && pos[v] != kNpos) dont_look[v] = 0;
  }

  // Candidate slots accumulate here per segment, in the exact order the
  // per-probe version evaluated them; three batched pair-distance calls
  // then feed the original comparator replay. Inserting after node u
  // (tour successor v) in the forward orientation puts s0 next to u; the
  // reversed orientation puts s1 there — extra power the exhaustive
  // sweep doesn't have, clawing back slots candidate pruning can't see.
  std::vector<std::size_t> us, vs, heads, tails;
  std::vector<char> revs;
  std::vector<double> d_uh, d_tv, d_uv;

  double total_gain = 0.0;
  for (std::size_t pass = 0; pass < opts.max_passes; ++pass) {
    ++counts.passes;
    bool improved = false;
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::size_t a = order[idx];
      if (dont_look[a]) continue;
      bool node_improved = false;

      for (std::size_t seg_len = 1; seg_len <= 3 && n >= seg_len + 3;
           ++seg_len) {
        const std::size_t i = pos[a];
        if (i + seg_len > n) continue;  // segments never wrap (as in sweep)
        const std::size_t s0 = a;
        const std::size_t s1 = order[i + seg_len - 1];
        const std::size_t p = order[(i + n - 1) % n];
        const std::size_t q = order[(i + seg_len) % n];
        const double removal_gain = dist(points, p, s0) +
                                    dist(points, s1, q) - dist(points, p, q);
        counts.probes += 3;
        if (removal_gain <= opts.min_gain) continue;

        const auto in_segment = [&](std::size_t v) {
          const std::size_t pv = pos[v];
          return pv >= i && pv < i + seg_len;
        };

        // Gathers the slot after u in the given orientation. u == p is
        // the only node whose successor lies inside the segment, so it
        // is never a valid slot.
        const auto consider = [&](std::size_t u, bool reversed) {
          if (pos[u] == kNpos || in_segment(u) || u == p) return;
          us.push_back(u);
          vs.push_back(order[(pos[u] + 1) % n]);
          heads.push_back(reversed ? s1 : s0);
          tails.push_back(reversed ? s0 : s1);
          revs.push_back(reversed ? 1 : 0);
        };
        us.clear();
        vs.clear();
        heads.clear();
        tails.clear();
        revs.clear();
        // Each neighbor c of an endpoint offers two slots: the segment's
        // matching end lands after c (c = u), or before it (u = pred(c)).
        for (const std::size_t c : cand.neighbors(s0)) {
          counts.cand_evals += 2;
          if (pos[c] == kNpos) continue;
          consider(c, /*reversed=*/false);          // u—s0…s1—v, u = c
          if (!in_segment(c))                       // u—s1…s0—v, v = c
            consider(order[(pos[c] + n - 1) % n], /*reversed=*/true);
        }
        for (const std::size_t c : cand.neighbors(s1)) {
          counts.cand_evals += 2;
          if (pos[c] == kNpos) continue;
          consider(c, /*reversed=*/true);           // u—s1…s0—v, u = c
          if (!in_segment(c))                       // u—s0…s1—v, v = c
            consider(order[(pos[c] + n - 1) % n], /*reversed=*/false);
        }
        if (us.empty()) continue;

        // Batch the three distance arrays, then replay the original
        // tie-broken minimum scan in gathering order — bit-identical to
        // the per-slot evaluation.
        d_uh.resize(us.size());
        d_tv.resize(us.size());
        d_uv.resize(us.size());
        points.distances_pairs(us, heads, d_uh.data());
        points.distances_pairs(tails, vs, d_tv.data());
        points.distances_pairs(us, vs, d_uv.data());
        counts.probes += 3 * us.size();
        double best_delta = -opts.min_gain;
        std::size_t best_u = kNpos;
        bool best_rev = false;
        for (std::size_t t = 0; t < us.size(); ++t) {
          const std::size_t u = us[t];
          const bool reversed = revs[t] != 0;
          const double delta = d_uh[t] + d_tv[t] - d_uv[t] - removal_gain;
          if (delta < best_delta ||
              (delta == best_delta &&
               (u < best_u || (u == best_u && !reversed && best_rev)))) {
            best_delta = delta;
            best_u = u;
            best_rev = reversed;
          }
        }
        if (best_u == kNpos) continue;

        // Splice: remove the segment, reinsert it after best_u.
        std::vector<std::size_t> seg(order.begin() + i,
                                     order.begin() + i + seg_len);
        if (best_rev) std::reverse(seg.begin(), seg.end());
        order.erase(order.begin() + i, order.begin() + i + seg_len);
        const auto slot = static_cast<std::size_t>(
            std::find(order.begin(), order.end(), best_u) - order.begin());
        order.insert(order.begin() + slot + 1, seg.begin(), seg.end());
        index_positions(order, pos);

        total_gain += -best_delta;
        ++counts.moves;
        node_improved = true;
        improved = true;
        for (const std::size_t v : {p, q, s0, s1, best_u}) dont_look[v] = 0;
        break;  // positions shifted; move on to the next tour slot
      }
      if (!node_improved) dont_look[a] = 1;
    }
    if (!improved) break;
  }
  return total_gain;
}

}  // namespace

double two_opt(Tour& tour, const DistanceView& points,
               const ImproveOptions& opts) {
  if (tour.size() < 4) return 0.0;
  ImproveCounts counts;
  const double gain =
      use_candidates(opts, tour.size(), points.size())
          ? two_opt_candidates(tour, points, *opts.candidates, opts, counts)
          : two_opt_exhaustive(tour, points, opts, counts);
  counts.flush();
  return gain;
}

double or_opt(Tour& tour, const DistanceView& points,
              const ImproveOptions& opts) {
  // Explicit tiny-tour early return: relocation needs a segment plus at
  // least three outside nodes, so n <= 3 (and, per segment length,
  // n <= seg_len + 2) has no move to offer.
  if (tour.size() < 4) return 0.0;
  ImproveCounts counts;
  const double gain =
      use_candidates(opts, tour.size(), points.size())
          ? or_opt_candidates(tour, points, *opts.candidates, opts, counts)
          : or_opt_exhaustive(tour, points, opts, counts);
  counts.flush();
  return gain;
}

double improve_tour(Tour& tour, const DistanceView& points,
                    const ImproveOptions& opts) {
  MWC_OBS_SCOPE("tsp.improve_tour");
  double total = 0.0;
  std::uint64_t rounds = 0;
  for (std::size_t round = 0; round < opts.max_passes; ++round) {
    ++rounds;
    const double g = two_opt(tour, points, opts) + or_opt(tour, points, opts);
    total += g;
    if (g <= opts.min_gain) break;
  }
  MWC_OBS_COUNT_N("tsp.improve_rounds", rounds);
  return total;
}

double two_opt(Tour& tour, std::span<const geom::Point> points,
               const ImproveOptions& opts) {
  return two_opt(tour, DistanceView::direct(points), opts);
}

double or_opt(Tour& tour, std::span<const geom::Point> points,
              const ImproveOptions& opts) {
  return or_opt(tour, DistanceView::direct(points), opts);
}

double improve_tour(Tour& tour, std::span<const geom::Point> points,
                    const ImproveOptions& opts) {
  return improve_tour(tour, DistanceView::direct(points), opts);
}

}  // namespace mwc::tsp
