#pragma once
/// \file common.hpp
/// \brief Shared plumbing of the benchmark driver: the metric report, the
///        output digest, medians, seed derivation and the benchmark's own
///        span log.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "eval/engine.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"

namespace ypmbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
};

/// Everything one run reports: metrics by name with unit, output checks,
/// the operation tally and the files it wrote.
struct Report {
    std::vector<Metric> metrics;
    std::vector<Check> checks;
    std::uint64_t attempted = 0; ///< workload operations (flows, certifications)
    std::uint64_t failed = 0;    ///< operations whose outputs failed a check
    std::string digest;          ///< digest of the workload outputs
    std::vector<std::string> trace_files;
    /// Wall and requests of the last traced round, for the kernel numbers
    /// run.py derives from the flow's own trace.
    double round_wall_s = 0.0;
    std::size_t round_requests = 0;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void check(std::string name, bool ok, std::string detail = {}) {
        checks.push_back({std::move(name), ok, std::move(detail)});
    }
    [[nodiscard]] bool correct() const {
        return !checks.empty() &&
               std::all_of(checks.begin(), checks.end(),
                           [](const Check& c) { return c.ok; });
    }
};

/// FNV-1a over the exact bit patterns of the values fed to it, so any
/// numeric change in an output shows as a different digest.
class Digest {
public:
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }
    void add(std::uint64_t v) { mix(v); }
    [[nodiscard]] std::string hex() const;

private:
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

[[nodiscard]] inline std::string Digest::hex() const {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[15 - i] = digits[(h_ >> (4 * i)) & 0xfu];
    return out;
}

[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Input seed `index` of a workload seed: every generated input derives
/// from the one --seed argument.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t index) {
    return ypm::eval::mix64(seed, index);
}

/// Thread id the benchmark's own spans carry in the trace files; the
/// report script maps it onto the calling thread of the program's spans.
constexpr std::uint32_t kBenchTid = 1000;

/// The benchmark's own spans around its calls into each layer. They are
/// kept in this list, not in the process tracer, because the flow's trace
/// session clears and disables the tracer around every flow run.
class SpanLog {
public:
    void enable(bool on) { on_ = on; }
    [[nodiscard]] bool enabled() const { return on_; }

    void record(const char* name, ypm::util::TickNs t0, ypm::util::TickNs t1,
                std::vector<ypm::obs::TraceArg> args = {}) {
        if (!on_) return;
        events_.push_back(ypm::obs::TraceEvent{name, "bench", t0, t1 - t0,
                                               kBenchTid, false,
                                               std::move(args)});
    }
    [[nodiscard]] const std::vector<ypm::obs::TraceEvent>& events() const {
        return events_;
    }

private:
    bool on_ = false;
    std::vector<ypm::obs::TraceEvent> events_;
};

} // namespace ypmbench
