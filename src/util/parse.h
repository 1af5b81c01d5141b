#ifndef CONVOY_UTIL_PARSE_H_
#define CONVOY_UTIL_PARSE_H_

#include <charconv>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace convoy {

/// Strict numeric parse for command-line flags: all of `text` must be one
/// base-10 integer (integral T) or one decimal/scientific number (floating
/// T) — no sign on unsigned types, no whitespace, no trailing characters —
/// and the value must lie in [min, max], which also rejects NaN and
/// infinities for floating T. On success stores the value in *out and
/// returns true; on failure leaves *out untouched and returns false.
template <typename T>
bool ParseNumber(std::string_view text, T* out,
                 std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
                 std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= min && value <= max)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace convoy

#endif  // CONVOY_UTIL_PARSE_H_
