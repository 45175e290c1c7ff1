#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace cipnet::obs {

std::size_t histogram_bucket_index(std::uint64_t value) {
  if (value < kHistogramSubBuckets) return static_cast<std::size_t>(value);
  // MSB position h >= 4: group (h - 3) with the 4 bits after the MSB as
  // the linear sub-bucket.
  const std::uint32_t h = static_cast<std::uint32_t>(std::bit_width(value)) - 1;
  const std::uint32_t shift = h - kHistogramSubBucketBits;
  const std::uint32_t group = h - kHistogramSubBucketBits + 1;
  const std::uint32_t sub = static_cast<std::uint32_t>(value >> shift) &
                            (kHistogramSubBuckets - 1);
  return (static_cast<std::size_t>(group) << kHistogramSubBucketBits) | sub;
}

std::uint64_t histogram_bucket_value(std::size_t index) {
  if (index < kHistogramSubBuckets) return index;
  const std::uint32_t group =
      static_cast<std::uint32_t>(index >> kHistogramSubBucketBits);
  const std::uint32_t sub = static_cast<std::uint32_t>(index) &
                            (kHistogramSubBuckets - 1);
  const std::uint32_t h = group + kHistogramSubBucketBits - 1;
  const std::uint32_t shift = h - kHistogramSubBucketBits;
  const std::uint64_t low =
      (static_cast<std::uint64_t>(kHistogramSubBuckets + sub)) << shift;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return low + (width >> 1);
}

namespace detail {

void HistogramCells::record(std::uint64_t value) {
  buckets[histogram_bucket_index(value)].fetch_add(1,
                                                   std::memory_order_relaxed);
  sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t current = max.load(std::memory_order_relaxed);
  while (value > current &&
         !max.compare_exchange_weak(current, value,
                                    std::memory_order_relaxed)) {
  }
}

void HistogramCells::reset() {
  for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  sum.store(0, std::memory_order_relaxed);
  max.store(0, std::memory_order_relaxed);
}

}  // namespace detail

std::uint64_t HistogramSnapshot::percentile(double p) const {
  if (count == 0 || buckets.empty()) return 0;
  if (p >= 100.0) return max;
  if (p < 0.0) p = 0.0;
  // Rank of the target recording, 1-based.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (const auto& [index, bucket_count] : buckets) {
    cumulative += bucket_count;
    // A bucket's midpoint can lie above the largest value recorded in it.
    if (cumulative >= rank) {
      return std::min(histogram_bucket_value(index), max);
    }
  }
  return max;
}

}  // namespace cipnet::obs
