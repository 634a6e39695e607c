#include "util/string_util.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace hinpriv::util {

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  Split(s, delim, &out);
  return out;
}

void Split(std::string_view s, char delim, std::vector<std::string_view>* out) {
  out->clear();
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out->push_back(s.substr(start));
      break;
    }
    out->push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

// strtoll/strtod skip leading whitespace; strict field parsing must not.
bool HasLeadingSpace(std::string_view s) {
  return !s.empty() && (s[0] == ' ' || s[0] == '\t' || s[0] == '\n' ||
                        s[0] == '\r' || s[0] == '\v' || s[0] == '\f');
}

// The wide parsers' shared body: the syntax strtoll/strtoull accept in base
// 10 with no leading whitespace — one optional sign, then decimal digits —
// parsed by std::from_chars, which takes no '+' of its own. Overflow is
// OutOfRange even when junk follows the digits, as with strtoll.
template <typename T>
Result<T> ParseDecimal(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty integer field");
  if (HasLeadingSpace(s)) {
    return Status::InvalidArgument("leading whitespace in integer field");
  }
  std::string_view digits = s;
  if (digits[0] == '+') {
    digits.remove_prefix(1);
    // One sign only: "+-5" and "++5" are junk to strtoll too.
    if (!digits.empty() && (digits[0] == '+' || digits[0] == '-')) {
      digits = digits.substr(0, 0);
    }
  }
  T value = 0;
  const char* end = digits.data() + digits.size();
  const std::from_chars_result parsed =
      std::from_chars(digits.data(), end, value);
  if (parsed.ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer overflow: '" + std::string(s) + "'");
  }
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    return Status::InvalidArgument("malformed integer: '" + std::string(s) +
                                   "'");
  }
  return value;
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view s) {
  return ParseDecimal<int64_t>(s);
}

Result<uint64_t> ParseUint64(std::string_view s) {
  if (!s.empty() && s[0] == '-') {
    return Status::InvalidArgument("negative value for unsigned field: '" +
                                   std::string(s) + "'");
  }
  return ParseDecimal<uint64_t>(s);
}

Result<double> ParseDouble(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty numeric field");
  if (HasLeadingSpace(s)) {
    return Status::InvalidArgument("leading whitespace in numeric field");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("double overflow: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("malformed double: '" + buf + "'");
  }
  return v;
}

std::string FormatDouble(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return std::string(buf);
}

}  // namespace hinpriv::util
