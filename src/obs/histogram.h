#pragma once

// Log-bucketed distribution storage for `obs::Histogram` (declared in
// obs/metrics.h next to Counter/Gauge): HDR-style power-of-two major
// buckets with 16 linear sub-buckets each, so relative quantization error
// stays under 1/16 across the whole 64-bit value range. Recording is a
// handful of relaxed atomic adds — lock-free and wait-free apart from the
// max-tracking CAS loop — so concurrent hot paths can record without
// coordination.
//
// This header is self-contained (no dependency on the registry) so the
// bucket math is directly testable; obs/metrics.h owns registration.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cipnet::obs {

/// Sub-bucket resolution: 2^4 linear sub-buckets per power-of-two range.
inline constexpr std::uint32_t kHistogramSubBucketBits = 4;
inline constexpr std::uint32_t kHistogramSubBuckets =
    1u << kHistogramSubBucketBits;

/// Bucket count covering all 64-bit values: 16 exact buckets for values
/// below 16, then 16 sub-buckets per remaining power of two (60 groups).
inline constexpr std::size_t kHistogramBuckets =
    kHistogramSubBuckets * (64 - kHistogramSubBucketBits + 1);

/// Bucket index of `value`. Values below 2^4 get exact buckets; larger
/// values land in the sub-bucket selected by the 4 bits after the MSB.
[[nodiscard]] std::size_t histogram_bucket_index(std::uint64_t value);

/// Representative (midpoint) value of a bucket — what percentiles report,
/// clamped to the observed max. Exact for the first 16 buckets, within
/// half a bucket width after that.
[[nodiscard]] std::uint64_t histogram_bucket_value(std::size_t index);

namespace detail {

/// The registry-owned cells behind one histogram. All relaxed atomics;
/// `count` is derived from the bucket sums at snapshot time.
struct HistogramCells {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};

  void record(std::uint64_t value);
  void reset();
};

}  // namespace detail

/// Point-in-time copy of one histogram: total count/sum/max plus the
/// nonzero buckets, from which any percentile can be computed.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  /// (bucket index, count) pairs, ascending by index, zero counts omitted.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// Value at percentile `p` in [0, 100]: the representative value of the
  /// bucket holding the ceil(p/100 * count)-th smallest recording, clamped
  /// to `max`. 0 when empty. `percentile(100)` reports the exact observed
  /// max.
  [[nodiscard]] std::uint64_t percentile(double p) const;

  [[nodiscard]] std::uint64_t mean() const {
    return count == 0 ? 0 : sum / count;
  }
};

}  // namespace cipnet::obs
