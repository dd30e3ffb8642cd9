#pragma once
/// \file units.hpp
/// \brief SPICE engineering-unit parsing and formatting.
///
/// Table files express values as `10u`, `0.35u`, `4meg`, `2.2k` and so on.
/// `try_parse_value` accepts the full SPICE suffix set (case insensitive,
/// trailing unit letters ignored, `meg`/`mil` handled before `m`), and
/// `format_eng` renders a double back into engineering notation.

#include <optional>
#include <string>
#include <string_view>

namespace ypm::units {

/// Parse a SPICE-style value such as "10u", "4meg", "1.5k", "2n", "1e-6".
/// Trailing unit names ("10uF", "50ohm") are tolerated after the suffix.
/// Returns std::nullopt when the text is not a number at all.
[[nodiscard]] std::optional<double> try_parse_value(std::string_view text);

/// Render with an engineering suffix, e.g. 1.5e-05 -> "15u".
/// \param digits significant digits of the mantissa (default 4).
[[nodiscard]] std::string format_eng(double value, int digits = 4);

} // namespace ypm::units
