#ifndef HINPRIV_UTIL_STRING_UTIL_H_
#define HINPRIV_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace hinpriv::util {

// Splits on a single delimiter character; keeps empty fields so that
// tab-separated dataset rows with missing columns are detected rather
// than silently collapsed.
std::vector<std::string_view> Split(std::string_view s, char delim);
// The same into `*out`, replacing its contents, so that a caller splitting
// line after line reuses one vector.
void Split(std::string_view s, char delim, std::vector<std::string_view>* out);

// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// Strict parse of a signed/unsigned decimal integer occupying the whole
// string: one optional '+' (or '-' for signed) and decimal digits, leading
// zeros allowed, no whitespace. Overflow is OutOfRange; junk, an empty
// field and a '-' on an unsigned field are InvalidArgument.
Result<int64_t> ParseInt64(std::string_view s);
Result<uint64_t> ParseUint64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

// ParseInt64/ParseUint64 narrowed to the integer type T, for fields of a
// parsed file. A value T cannot hold, 64-bit overflow included, is
// Corruption: narrowing it would silently wrap it onto another id.
template <typename T>
Result<T> ParseInteger(std::string_view s) {
  static_assert(std::is_integral_v<T>, "ParseInteger parses integers");
  auto wide = [s] {
    if constexpr (std::is_signed_v<T>) {
      return ParseInt64(s);
    } else {
      return ParseUint64(s);
    }
  }();
  if (wide.status().code() == Status::Code::kOutOfRange ||
      (wide.ok() && !std::in_range<T>(wide.value()))) {
    return Status::Corruption("integer out of range: '" + std::string(s) +
                              "'");
  }
  if (!wide.ok()) return wide.status();
  return static_cast<T>(wide.value());
}

// Formats a double with the given number of decimal places (printf "%.*f").
std::string FormatDouble(double value, int decimals);

}  // namespace hinpriv::util

#endif  // HINPRIV_UTIL_STRING_UTIL_H_
