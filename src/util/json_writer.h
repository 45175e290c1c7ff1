#pragma once

// Escaping-correct JSON serialization, the write-side counterpart of the
// strict parser in util/json.h. Everything the codebase emits as JSON — the
// JSONL trace sink, the `cipnet report` renderers, BENCH_* perf lines, and
// the `cipnet serve` NDJSON responses — goes through this writer, so output
// always round-trips through `json::parse`. The writer is a push API over
// an append-only buffer: containers are opened/closed explicitly, commas
// and key/value colons are inserted automatically. Nesting discipline (a
// key before every object member, matched begin/end) is the caller's
// responsibility; it is asserted in debug builds.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cipnet::json {

/// Escape `text` for inclusion inside a JSON string literal (no quotes
/// added): `"` `\` and control characters; everything else — including
/// UTF-8 multibyte sequences — passes through unchanged.
[[nodiscard]] std::string escape(std::string_view text);

class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Object member key (quoted + escaped + colon).
  Writer& key(std::string_view k);

  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(const std::string& v) { return value(std::string_view(v)); }
  Writer& value(bool v);
  Writer& value(double v);
  Writer& value(std::uint64_t v);
  Writer& value(std::int64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  Writer& null();

  /// Splice a pre-serialized JSON fragment as one value (e.g. a cached
  /// response payload). The fragment must itself be valid JSON.
  Writer& raw(std::string_view fragment);

  /// `key(k)` followed by `value(v)`.
  template <typename T>
  Writer& member(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// The serialized document. Valid once every container is closed.
  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void before_value();

  std::string out_;
  // One entry per open container: whether the next element needs a comma.
  std::vector<bool> need_comma_;
  bool pending_key_ = false;
};

/// Format a double the way `Writer::value(double)` does: shortest form that
/// round-trips through `json::parse`; non-finite values become `null`.
[[nodiscard]] std::string number_to_string(double v);

}  // namespace cipnet::json
