#pragma once
/// \file ota.hpp
/// \brief The paper's benchmark circuit: a symmetrical OTA (Fig. 5).
///
/// Topology (NMOS-input symmetrical OTA, DESIGN.md section 3):
///   M1/M2   NMOS differential pair, fixed dimensions, ideal tail source
///   M3/M6   diode-connected PMOS loads            (W4, L4)
///   M4/M5   PMOS mirror outputs, current gain B = (W1/L1)/(W4/L4) (W1, L1)
///   M7/M9   NMOS cascode mirror, input (diode) side             (W2, L2)
///   M8/M10  NMOS cascode mirror, output side                    (W3, L3)
/// Designable parameters and ranges follow paper Table 1 exactly.
///
/// The open-loop testbench biases the amplifier with the classic L/C trick:
/// a very large inductor closes unity feedback at DC (well-defined operating
/// point) while leaving the loop open for AC, and a very large capacitor
/// grounds the inverting input for AC.

#include <complex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "moo/problem.hpp"
#include "process/process_card.hpp"
#include "process/sampler.hpp"
#include "spice/circuit.hpp"
#include "spice/devices/mosfet.hpp"
#include "spice/measure.hpp"
#include "spice/prototype.hpp"

namespace ypm::circuits {

/// Designable parameters (paper Table 1). All dimensions in metres.
struct OtaSizing {
    double w1 = 35e-6, l1 = 2e-6; ///< M5, M4
    double w2 = 35e-6, l2 = 2e-6; ///< M7, M9
    double w3 = 35e-6, l3 = 2e-6; ///< M10, M8
    double w4 = 35e-6, l4 = 2e-6; ///< M3, M6

    static constexpr std::size_t parameter_count = 8;

    /// Order: W1 L1 W2 L2 W3 L3 W4 L4 (matches parameter_specs()).
    [[nodiscard]] static OtaSizing from_vector(const std::vector<double>& v);
    [[nodiscard]] std::vector<double> to_vector() const;

    /// Paper Table 1: W in [10, 60] um, L in [0.35, 4] um.
    [[nodiscard]] static std::vector<moo::ParameterSpec> parameter_specs();
    [[nodiscard]] static const std::vector<std::string>& parameter_names();
};

/// Fixed testbench conditions.
struct OtaConfig {
    process::ProcessCard card = process::ProcessCard::c35();
    double i_tail = 20e-6;  ///< tail bias current (A)
    double c_load = 10e-12; ///< output load capacitance (F)
    double vcm = 1.65;      ///< input common mode (V)
    double w_in = 20e-6;    ///< fixed M1/M2 width
    double l_in = 1e-6;     ///< fixed M1/M2 length
    double fb_inductor = 1e6; ///< DC-feedback inductor (H)
    double fb_capacitor = 1.0;///< AC-ground capacitor at inn (F)
    double f_start = 10.0;
    double f_stop = 10e9;
    std::size_t points_per_decade = 12;
};

/// Build the complete open-loop AC testbench. Public nodes are named
/// "inp", "inn", "out"; transistor instance names are prefix + "m1".."m10".
[[nodiscard]] spice::Circuit build_ota_testbench(const OtaSizing& sizing,
                                                 const OtaConfig& config);

/// Add just the OTA core (10 transistors + tail source) to an existing
/// circuit. Used by the testbench and by the transistor-level filter.
/// \param prefix instance-name prefix, e.g. "ota1."
void add_ota_core(spice::Circuit& circuit, const std::string& prefix,
                  const OtaSizing& sizing, const OtaConfig& config,
                  spice::NodeId inp, spice::NodeId inn, spice::NodeId out,
                  spice::NodeId vdd);

/// Measured performance: the two objective functions of paper section 4.1.
struct OtaPerformance {
    bool valid = false;
    double gain_db = 0.0; ///< open-loop DC gain (dB)
    double pm_deg = 0.0;  ///< phase margin (deg)
    spice::BodeMetrics bode;
    std::string failure; ///< populated when !valid
};

/// Prototype-backed OTA measurement kernel: builds the testbench once and
/// re-binds sizing/process values per point, reusing the MNA factorisation
/// workspaces across the whole chunk. Results are bit-identical to
/// measuring a freshly built testbench (the rebuild oracle in
/// tests/support checks this). Stateful - one per thread; OtaEvaluator
/// leases warm instances from its pool.
class OtaPrototype {
public:
    explicit OtaPrototype(const OtaConfig& config);

    OtaPrototype(const OtaPrototype&) = delete;
    OtaPrototype& operator=(const OtaPrototype&) = delete;

    /// Re-bind and measure one point (nullptr realization = nominal). The AC
    /// sweep stops at spice::bode_sweep_complete: values equal the full
    /// sweep's, but a singular matrix or zero input past the stop goes unseen.
    [[nodiscard]] OtaPerformance
    measure(const OtaSizing& sizing,
            const process::Realization* realization = nullptr);

    /// Re-bind one point and return V(out)/V(inp) over freqs().
    /// \throws ypm::NumericalError if the DC operating point does not
    /// converge or the AC solve fails.
    [[nodiscard]] std::vector<std::complex<double>>
    transfer(const OtaSizing& sizing,
             const process::Realization* realization = nullptr);

    /// Operating region of each transistor, in device order, at the
    /// nominal-process operating point of `sizing`.
    /// \throws ypm::NumericalError if the DC operating point does not
    /// converge.
    [[nodiscard]] std::vector<std::pair<std::string, spice::Mosfet::Region>>
    op_regions(const OtaSizing& sizing);

    [[nodiscard]] const std::vector<double>& freqs() const { return freqs_; }

private:
    /// Re-bind sizing and process, then solve the DC operating point.
    [[nodiscard]] spice::DcResult
    bind_and_solve(const OtaSizing& sizing,
                   const process::Realization* realization);

    spice::CircuitPrototype proto_;
    spice::CircuitPrototype::Instance inst_;
    spice::Mosfet *m3_, *m6_, *m5_, *m4_, *m9_, *m7_, *m10_, *m8_;
    spice::NodeId out_, inp_;
    std::vector<double> freqs_;
};

/// Measurement harness around the testbench (thread-safe: every measurement
/// leases a warm prototype from a persistent spice::PrototypePool keyed by
/// this evaluator's config - a scalar call is a one-point lease - so the
/// testbench structure is built once per concurrent kernel, not once per
/// point or per evaluate_batch call). Copies share the pool - they measure
/// the same configuration, so warm instances are interchangeable.
class OtaEvaluator {
public:
    explicit OtaEvaluator(OtaConfig config = {});

    /// Nominal-process measurement (a one-point lease).
    [[nodiscard]] OtaPerformance measure(const OtaSizing& sizing) const;

    /// Measurement under a sampled process realisation (a one-point lease).
    [[nodiscard]] OtaPerformance
    measure(const OtaSizing& sizing, const process::Realization& realization) const;

    /// Chunk kernels: evaluate a group of points through one leased
    /// testbench prototype (see OtaPrototype). Element i of the result is
    /// bit-identical to the corresponding scalar measure() call.
    [[nodiscard]] std::vector<OtaPerformance>
    measure_chunk(std::span<const OtaSizing> sizings) const;

    /// Paired sizing/realisation points (a different sizing and process
    /// point each, e.g. a replayed point set); sizes must match.
    [[nodiscard]] std::vector<OtaPerformance>
    measure_chunk(std::span<const OtaSizing> sizings,
                  std::span<const process::Realization> realizations) const;

    /// One sizing under many realisations (Monte Carlo batches).
    [[nodiscard]] std::vector<OtaPerformance>
    measure_chunk(const OtaSizing& sizing,
                  std::span<const process::Realization> realizations) const;

    /// Full AC response of V(out)/V(inp) - Fig. 8's curve (a one-point
    /// lease). \throws ypm::NumericalError if the DC operating point does
    /// not converge.
    struct Response {
        std::vector<double> freqs;
        std::vector<std::complex<double>> h;
    };
    [[nodiscard]] Response
    ac_response(const OtaSizing& sizing,
                const process::Realization* realization = nullptr) const;

    /// Operating region of each transistor at the nominal OP (testbench
    /// sanity assertions; a one-point lease).
    [[nodiscard]] std::vector<std::pair<std::string, spice::Mosfet::Region>>
    op_regions(const OtaSizing& sizing) const;

    [[nodiscard]] const OtaConfig& config() const { return config_; }

    /// The persistent prototype pool behind the chunk kernels (reuse
    /// diagnostics: created() stops growing once the pool is warm).
    [[nodiscard]] const spice::PrototypePool<OtaPrototype>& prototype_pool() const {
        return *pool_;
    }

private:
    OtaConfig config_;
    /// Shared so copies reuse the same warm instances (identical config).
    std::shared_ptr<spice::PrototypePool<OtaPrototype>> pool_;
};

} // namespace ypm::circuits
