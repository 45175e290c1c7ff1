#pragma once

// Process memory accounting: peak / current resident set size read from
// the OS (Linux /proc/self/status, getrusage fallback). Used by the
// time-series sampler and the CLI epilogue to attach real memory numbers
// to a run; byte-*estimate* gauges for in-process data structures live
// with those structures (e.g. `reach.graph_bytes` in
// reach/reachability.cpp).

#include <cstdint>

namespace cipnet::obs {

/// Peak resident set size of this process in bytes (VmHWM), or 0 when the
/// platform offers no way to read it.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Current resident set size in bytes (VmRSS), or 0 when unavailable.
[[nodiscard]] std::uint64_t current_rss_bytes();

}  // namespace cipnet::obs
