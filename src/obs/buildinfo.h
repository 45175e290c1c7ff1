#pragma once

// Build provenance for perf-trajectory files: git SHA, compiler, build
// type. Captured at CMake configure time (see src/CMakeLists.txt) and
// compiled into the library, so every BENCH_META line the bench binaries
// print identifies the code and toolchain it measured. Values fall back to
// "unknown" outside a git checkout; the SHA refreshes on reconfigure, not
// on every commit.

namespace cipnet::obs {

[[nodiscard]] const char* build_git_sha();
[[nodiscard]] const char* build_compiler();
[[nodiscard]] const char* build_type();

/// Comma-separated compiled-in feature flags, stable order: "fault" when
/// CIPNET_FAULT sites are compiled in, "flight" for the always-on flight
/// recorder, "sampler" for the metrics time-series sampler. Reported by
/// `cipnet --version` and the serve `version` op so a trace or bug report
/// pins down exactly what the binary could observe or inject.
[[nodiscard]] const char* build_features();

/// Sanitizer the build was compiled under ("thread", "address") or "none".
[[nodiscard]] const char* build_sanitizer();

}  // namespace cipnet::obs
