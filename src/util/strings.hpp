#pragma once
/// \file strings.hpp
/// \brief Small string helpers shared by table I/O, circuit node names and
///        report writers. All functions are pure and allocation-friendly.

#include <string>
#include <string_view>
#include <vector>

namespace ypm::str {

/// Remove leading and trailing whitespace (space, tab, CR, LF).
[[nodiscard]] std::string trim(std::string_view s);

/// Lower-case an ASCII string (node and device names are case-insensitive).
[[nodiscard]] std::string to_lower(std::string_view s);

/// Split on a single delimiter character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Split on runs of whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// Join pieces with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if \p s begins with \p prefix (case sensitive).
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Render a double with enough digits to round-trip (used by .tbl writers).
[[nodiscard]] std::string fmt_double(double v);

/// Escape \p s for embedding inside a JSON string literal; surrounding
/// quotes are not added. Used by the obs trace/metrics serializers and the
/// structured log sink.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Fixed-point rendering with \p digits decimals (used by report tables).
[[nodiscard]] std::string fmt_fixed(double v, int digits);

} // namespace ypm::str
