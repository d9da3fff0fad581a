#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdlib>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg {

std::string_view trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  size_t b = 0;
  while (b < s.size() && is_space(s[b])) ++b;
  size_t e = s.size();
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t b = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > b) out.emplace_back(s.substr(b, i - b));
  }
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

int parse_flag_int(const std::string& flag, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
      v < INT_MIN || v > INT_MAX) {
    throw InputError(strprintf("%s: '%s' is not an integer", flag.c_str(),
                               value.c_str()));
  }
  return static_cast<int>(v);
}

double parse_flag_double(const std::string& flag, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    throw InputError(strprintf("%s: '%s' is not a number", flag.c_str(),
                               value.c_str()));
  }
  return v;
}

long parse_long(std::string_view s, std::string_view context) {
  s = trim(s);
  long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw InputError(strprintf("expected integer for %.*s, got '%.*s'",
                               int(context.size()), context.data(),
                               int(s.size()), s.data()));
  }
  return value;
}

double parse_double(std::string_view s, std::string_view context) {
  s = trim(s);
  // std::from_chars<double> is available in GCC 12, but accept Fortran-style
  // exponents ('1.0d-3') as CGYRO inputs sometimes carry them.
  std::string buf(s);
  for (auto& c : buf) {
    if (c == 'd' || c == 'D') c = 'e';
  }
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    throw InputError(strprintf("expected real number for %.*s, got '%.*s'",
                               int(context.size()), context.data(),
                               int(s.size()), s.data()));
  }
  return value;
}

bool parse_bool(std::string_view s, std::string_view context) {
  const std::string v = to_lower(trim(s));
  if (v == "1" || v == "true" || v == "t" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "f" || v == "no") return false;
  throw InputError(strprintf("expected boolean for %.*s, got '%s'",
                             int(context.size()), context.data(), v.c_str()));
}

}  // namespace xg
