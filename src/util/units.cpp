#include "util/units.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace ypm::units {

std::optional<double> try_parse_value(std::string_view text) {
    const std::string s = str::trim(text);
    if (s.empty()) return std::nullopt;

    const char* begin = s.c_str();
    char* end = nullptr;
    const double mantissa = std::strtod(begin, &end);
    if (end == begin) return std::nullopt;

    std::string suffix = str::to_lower(std::string_view(end));
    double scale = 1.0;
    if (!suffix.empty()) {
        // Multi-letter suffixes must be matched before single letters
        // ("meg" would otherwise parse as milli).
        if (str::starts_with(suffix, "meg")) {
            scale = 1e6;
        } else if (str::starts_with(suffix, "mil")) {
            scale = 25.4e-6;
        } else {
            switch (suffix[0]) {
            case 't': scale = 1e12; break;
            case 'g': scale = 1e9; break;
            case 'k': scale = 1e3; break;
            case 'm': scale = 1e-3; break;
            case 'u': scale = 1e-6; break;
            case 'n': scale = 1e-9; break;
            case 'p': scale = 1e-12; break;
            case 'f': scale = 1e-15; break;
            case 'a': scale = 1e-18; break;
            default:
                // A bare unit name like "v" or "ohm": acceptable, no scaling.
                if (!std::isalpha(static_cast<unsigned char>(suffix[0])))
                    return std::nullopt;
                scale = 1.0;
                break;
            }
        }
    }
    return mantissa * scale;
}

std::string format_eng(double value, int digits) {
    if (value == 0.0) return "0";
    if (!std::isfinite(value)) return value > 0 ? "inf" : (value < 0 ? "-inf" : "nan");

    struct Suffix { double scale; const char* name; };
    static constexpr std::array<Suffix, 9> suffixes = {{
        {1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"}, {1.0, ""},
        {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"},
    }};

    const double mag = std::fabs(value);
    for (const auto& s : suffixes) {
        if (mag >= s.scale * 0.9999999999) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.*g%s", digits, value / s.scale, s.name);
            return buf;
        }
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", digits, value);
    return buf;
}

} // namespace ypm::units
