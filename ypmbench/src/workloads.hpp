#pragma once
/// \file workloads.hpp
/// \brief The benchmark workloads. Each one generates its inputs from the
///        workload seed, builds its fixture in setup() (repeatable, so the
///        driver can time several set-ups) and then runs identical rounds:
///        one round is the workload's fixed list of operations (flows or
///        certifications), so every round repeats the same counts and the
///        same output digest.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/flow.hpp"
#include "eval/engine.hpp"

namespace ypmbench {

/// Per-cell tally of a certification round (one scenario x estimator).
struct CellStats {
    std::string scenario;
    std::string estimator;
    std::size_t certifications = 0;
    std::size_t reached_target = 0;
    std::size_t ci_overlaps = 0;  ///< CIs overlapping the reference interval
    std::size_t samples = 0;      ///< pilot + main-stage samples
    std::size_t pilot_samples = 0;
    std::size_t refits = 0;
    std::size_t chunks = 0;       ///< main-stage chunks folded
    double ess_per_sample_sum = 0.0;
    double yield_sum = 0.0;
    double variance_sum = 0.0;    ///< sum of per-certification variances
    double reference = 0.0;       ///< reference yield of the scenario
    double reference_se = 0.0;    ///< its standard error (0 = closed form)
    double target = 0.0;          ///< the scenario's CI half-width target
};

struct RoundResult {
    double wall_s = 0.0;
    std::vector<double> op_wall_s; ///< wall of each operation, in order
    ypm::eval::EngineCounters ledger; ///< summed over the round's engines
    /// Samples to CI, pilots included; for the flow, which certifies
    /// nothing, every sample it simulated (engine requests).
    std::size_t samples = 0;
    std::size_t operations = 0;
    std::size_t failed_operations = 0;
    std::string digest;
    /// Kernel time summed over workers, from the benchmark-wrapped kernel
    /// factory (traced yield rounds only; negative when not measured).
    double kernel_busy_s = -1.0;
    ypm::core::FlowTimings flow;  ///< flow rounds: step walls summed
    std::size_t moo_evaluations = 0;
    std::vector<CellStats> cells; ///< certification rounds
    std::vector<Check> checks;    ///< output checks of this round
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Build the fixture (scenarios, directories, warm prototypes). May be
    /// called several times; the last fixture is the one rounds use.
    virtual void setup() = 0;
    /// Run one round. `traced` wraps the kernels for busy-time accounting
    /// and, for the flow, turns on FlowConfig::trace_path.
    [[nodiscard]] virtual RoundResult round(SpanLog& spans, bool traced) = 0;
    /// The trace files the program itself wrote in the last traced round
    /// (none when the benchmark collects the program's spans itself).
    [[nodiscard]] virtual std::vector<std::string> program_traces() const {
        return {};
    }
};

/// \param name "paper_flow" or "synth_yield".
/// \param out_dir scratch directory for artifacts and trace files.
/// \throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload>
make_workload(const std::string& name, std::uint64_t seed,
              const std::string& out_dir);

/// The flow probe of the traced run: one Table-5 flow at the workload seed.
[[nodiscard]] std::unique_ptr<Workload>
make_flow_probe(std::uint64_t seed, const std::string& out_dir);

/// The certification-cell probe of the traced run: every scenario x
/// estimator cell once, at one seed derived from the workload seed. Only
/// its plain_mc estimates are checked against the references.
[[nodiscard]] std::unique_ptr<Workload> make_cell_probe(std::uint64_t seed);

/// Brute-force references of the OTA scenarios (yield::scenario_reference
/// at the scenario's reference population), printed as C++ initialisers
/// for the table in workloads.cpp.
void print_ota_references();

} // namespace ypmbench
