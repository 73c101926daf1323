#include "util/strings.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace sm {

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> SplitChar(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view TrimView(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string IndexedName(std::string_view prefix, long long index) {
  std::string out(prefix);
  out += std::to_string(index);
  return out;
}

std::string FormatCount(double value) {
  char buf[48];
  if (value == 0.0) return "0";
  if (value < 1e6 && value == std::floor(value)) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  } else {
    std::snprintf(buf, sizeof buf, "%.2e", value);
  }
  return buf;
}

std::string FormatPercent(double fraction_times_100, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, fraction_times_100);
  return buf;
}

}  // namespace sm
