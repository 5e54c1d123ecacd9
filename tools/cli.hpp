// Command-line helpers shared by the ssq_* tools: `--key=value` lookup and a
// strict unsigned-integer parse.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "sim/error.hpp"

namespace ssq::cli {

/// Returns the value of `--key=value` (empty for a bare `--key`), or nullopt
/// if `arg` is a different option.
inline std::optional<std::string> opt_value(std::string_view arg,
                                            std::string_view key) {
  if (arg.substr(0, key.size()) != key) return std::nullopt;
  if (arg.size() == key.size()) return std::string{};
  if (arg[key.size()] != '=') return std::nullopt;
  return std::string(arg.substr(key.size() + 1));
}

/// Strict unsigned-integer parse: the whole value must be decimal digits
/// that fit in T. A sign ("-1" would wrap under strtoull), trailing garbage
/// and out-of-range values all throw ssq::ConfigError.
template <typename T = std::uint64_t>
T parse_uint(const std::string& value, std::string_view option) {
  T out{};
  const char* first = value.data();
  const char* last = first + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (value.empty() || ec != std::errc{} || ptr != last) {
    throw ConfigError("invalid value '" + value + "' for " +
                      std::string(option) + " (expected an unsigned integer)");
  }
  return out;
}

}  // namespace ssq::cli
