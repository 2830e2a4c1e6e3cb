// Small formatting helpers for reports and benchmark tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace evolve::util {

/// "1.50 GiB", "512 B", ... (binary units).
std::string human_bytes(Bytes bytes);

/// "12.3 ms", "1.20 s", "450 us", ...
std::string human_time(TimeNs t);

/// Fixed-point formatting with `digits` decimals.
std::string fixed(double value, int digits = 2);

/// Joins strings with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if `text` starts with `prefix`.
bool starts_with(const std::string& text, const std::string& prefix);

/// `prefix` followed by the decimal `n`: numbered("o", 7) == "o7". Built
/// by appending, because GCC 12 at -O3 reports a false-positive
/// -Wrestrict on the inlined `"o" + std::to_string(n)` temporary chain.
std::string numbered(const std::string& prefix, std::int64_t n);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(const std::string& text, char sep);

}  // namespace evolve::util
