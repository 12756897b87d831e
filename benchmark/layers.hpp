// The per-layer half of mwcbench's traced run.
//
// Two sources feed the per-layer table:
//   [W] the workload itself re-run over TCP with a trace id on every
//       request, so mwcd echoes its stage times (mwcbench.cpp);
//   [P] replay_layers(): the workload's own instances replayed in this
//       process through each layer's public functions, each call timed
//       from outside (layers.cpp).
// A layer a workload never exercises reads 0 on that workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace mwcbench {

using LayerValues = std::map<std::string, double>;

/// Every per-layer metric as (name, unit), in table order; the names are
/// the per_layer entries of BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// [P]: replays `spec`'s instances for `seed` through the layers'
/// public calls (first 50 cold_2k instances, 4 cold_10k instances, the
/// warm request lines, or 200 deltas plus 20 cold solves of mixed_open).
/// Throws std::runtime_error when a replayed call fails.
LayerValues replay_layers(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace mwcbench
