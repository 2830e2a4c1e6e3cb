#include "util/strings.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace evolve::util {

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

std::string human_bytes(Bytes bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  double v = static_cast<double>(bytes);
  bool negative = v < 0;
  if (negative) v = -v;
  int unit = 0;
  while (v >= 1024.0 && unit < 5) {
    v /= 1024.0;
    ++unit;
  }
  std::string body =
      unit == 0 ? fixed(v, 0) + " " + units[unit] : fixed(v, 2) + " " + units[unit];
  return negative ? "-" + body : body;
}

std::string human_time(TimeNs t) {
  double v = static_cast<double>(t);
  bool negative = v < 0;
  if (negative) v = -v;
  std::string body;
  if (v < 1e3) {
    body = fixed(v, 0) + " ns";
  } else if (v < 1e6) {
    body = fixed(v / 1e3, 2) + " us";
  } else if (v < 1e9) {
    body = fixed(v / 1e6, 2) + " ms";
  } else if (v < 60e9) {
    body = fixed(v / 1e9, 2) + " s";
  } else {
    body = fixed(v / 60e9, 2) + " min";
  }
  return negative ? "-" + body : body;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::ostringstream out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out << sep;
    out << parts[i];
  }
  return out.str();
}

std::string numbered(const std::string& prefix, std::int64_t n) {
  return std::string(prefix).append(std::to_string(n));
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  out.push_back(current);
  return out;
}

}  // namespace evolve::util
