// One flat JSON object, written key by key: the driver's report line.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  Report& num(const std::string& key, double value) {
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", value);
    return raw(key, text);
  }
  Report& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Report& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) quoted += ch;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  Report& hashes(const std::string& key,
                 const std::vector<std::uint64_t>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) list += ',';
      list += '"';
      list += hex(values[i]);
      list += '"';
    }
    return raw(key, list + "]");
  }
  Report& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
    body_ += json;
    return *this;
  }
  /// Print the object as one line on stdout.
  void print() const { std::printf("{%s}\n", body_.c_str()); }

  static std::string hex(std::uint64_t value) {
    char text[17];
    std::snprintf(text, sizeof text, "%016" PRIx64, value);
    return text;
  }

 private:
  std::string body_;
};

/// Nearest-rank quantile `q` of `values` (0 when empty).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[std::min(values.size(), rank) - 1];
}

}  // namespace perfbench
