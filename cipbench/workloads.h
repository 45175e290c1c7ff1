#pragma once

// The four workloads. Each builds its inputs from the seed (timed as
// `setup_s`), measures for `config.seconds`, checks every answer against
// a reference outside the timed region, and returns the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).

#include "common.h"

namespace cipbench {

[[nodiscard]] Outcome run_flow(const RunConfig& config);
[[nodiscard]] Outcome run_explore(const RunConfig& config);
/// `hot` selects serve_hot (open loop over a warm cache) instead of
/// serve_mixed (closed loop, every request a cache miss).
[[nodiscard]] Outcome run_serve(const RunConfig& config, bool hot);

}  // namespace cipbench
