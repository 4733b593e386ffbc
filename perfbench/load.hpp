// Interfaces shared by the load generator (load.cpp) and its traced
// in-process replay (traced.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One printed metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Replays the workload's seeded sequence in-process through
/// server::Service and the public entry points of each layer, timing
/// every call in a span, and derives the traced per-layer metrics.
/// Spans are written to `span_path` as a Chrome trace at the end.
Metrics traced_run(Workload w, std::uint64_t seed,
                   const std::string& span_path);

}  // namespace perfbench
