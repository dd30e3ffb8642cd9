#pragma once
/// \file probes.hpp
/// \brief Single-thread layer probes of the traced run: each times the
///        benchmark's own calls into one module's public functions on a
///        seeded input set, off the end-to-end clock.

#include <cstdint>

#include "common.hpp"

namespace ypmbench {

/// Runs every probe and adds its metrics (circuits.*, spice.*, linalg.*,
/// process.*, moo.ga_overhead_s, obs.disarmed_span_ns) and its consistency
/// checks to `report`.
void run_layer_probes(std::uint64_t seed, SpanLog& spans, Report& report);

} // namespace ypmbench
