#pragma once
/// \file filter.hpp
/// \brief The paper's hierarchical application: a 2nd-order low-pass filter
///        built from two OTAs (Figs. 9-11).
///
/// Realisation: unity-gain Sallen-Key stage (OTA1 as the buffer, R1/R2
/// fixed, C1 feedback / C2 shunt designable) followed by an OTA2 output
/// buffer loaded by designable C3. Using the OTA in unity feedback couples
/// the filter response to the OTA's finite gain and bandwidth, which is
/// what links the OTA specs (gain >= 50 dB, PM >= 60 deg) to filter yield.
///
/// The OTAs can be instantiated either as behavioural macromodels (the
/// paper's fast hierarchical flow) or at transistor level (verification).

#include <complex>
#include <span>
#include <string>
#include <vector>

#include "circuits/ota.hpp"
#include "mc/yield.hpp"
#include "spice/devices/capacitor.hpp"
#include "moo/problem.hpp"
#include "process/sampler.hpp"
#include "spice/circuit.hpp"
#include "spice/measure.hpp"
#include "util/rng.hpp"
#include "va/behav_ota_device.hpp"

namespace ypm::circuits {

/// Designable filter parameters (paper section 5: "capacitor values C1, C2
/// and C3"). Farads.
struct FilterSizing {
    double c1 = 47e-12;
    double c2 = 22e-12;
    double c3 = 10e-12;

    static constexpr std::size_t parameter_count = 3;

    [[nodiscard]] static FilterSizing from_vector(const std::vector<double>& v);
    [[nodiscard]] std::vector<double> to_vector() const;

    /// C in [2, 60] pF each.
    [[nodiscard]] static std::vector<moo::ParameterSpec> parameter_specs();
};

/// Which OTA model the filter instantiates.
enum class OtaModelKind { behavioural, transistor };

/// Fixed filter conditions. The resistor values put the passive corner
/// near 100 kHz with capacitors inside the designable [2, 60] pF box -
/// an anti-aliasing class this OTA's gain-bandwidth (~1 MHz at the
/// high-gain end of the front) can buffer cleanly.
struct FilterConfig {
    double r1 = 47e3; ///< ohms
    double r2 = 47e3;
    double vcm = 1.65;
    /// Macromodel electrical spec (behavioural kind). Defaults mirror the
    /// nominal transistor OTA: 57 dB, dominant pole from rout ~ 4.1 MOhm
    /// against the load (intrinsic pole out of band).
    va::BehaviouralOtaSpec ota_spec{57.0, 1e9, 4.1e6};
    /// Transistor-level OTA (transistor kind).
    OtaSizing ota_sizing;
    OtaConfig ota_config;
    double f_start = 1e2;
    double f_stop = 1e9;
    std::size_t points_per_decade = 12;
};

/// The anti-aliasing specification mask of paper Fig. 10 (frequency plan
/// scaled to this OTA class - see FilterConfig).
struct FilterSpecMask {
    double f_pass = 50e3;            ///< passband edge (Hz)
    double passband_ripple_db = 1.0; ///< |gain| deviation allowed up to f_pass
    double fc_target = 100e3;        ///< -3 dB target (Hz)
    double fc_tolerance = 0.20;      ///< relative tolerance on fc
    double f_stop = 1e6;             ///< stopband test frequency (Hz)
    /// Required attenuation at f_stop. An ideal 2nd-order response gives
    /// ~40 dB one decade out; the transistor OTA's high-frequency
    /// feedthrough (unmodelled in the macromodel, cf. paper Fig. 8)
    /// limits the realisable floor to ~21 dB, so the mask asks for 20 dB.
    double min_stop_atten_db = 20.0;
};

/// Build the filter; public nodes "vin" (driven) and "vout".
[[nodiscard]] spice::Circuit build_filter(const FilterSizing& sizing,
                                          const FilterConfig& config,
                                          OtaModelKind kind);

/// Measured filter response metrics.
struct FilterPerformance {
    bool valid = false;
    double passband_gain_db = 0.0;
    double fc = 0.0;               ///< -3 dB cutoff (Hz)
    double stopband_atten_db = 0.0;///< at mask.f_stop
    double worst_passband_dev_db = 0.0; ///< max |gain - passband_gain| below f_pass
    std::string failure;

    /// Does the response satisfy the Fig. 10 mask?
    [[nodiscard]] bool meets(const FilterSpecMask& mask) const;
};

class FilterEvaluator; // below

/// Macromodel specs of the behavioural filter's two OTAs.
struct FilterOtaSpecs {
    va::BehaviouralOtaSpec ota1;
    va::BehaviouralOtaSpec ota2;
};

/// Prototype-backed filter measurement kernel: builds the filter once for a
/// fixed OTA model kind and re-binds every varying value per point - the
/// designable capacitors, both macromodel specs (behavioural kind) and the
/// process realisation (transistor kind) - reusing the MNA factorisation
/// workspaces across the chunk. Results are bit-identical to measuring a
/// freshly built filter (the rebuild oracle in tests/support checks this).
/// Stateful - one per thread; FilterEvaluator leases warm instances from
/// its pool.
class FilterPrototype {
public:
    FilterPrototype(const FilterEvaluator& evaluator, OtaModelKind kind);

    FilterPrototype(const FilterPrototype&) = delete;
    FilterPrototype& operator=(const FilterPrototype&) = delete;

    /// Re-bind one point and measure. `specs` nullptr means the config's
    /// nominal ota_spec for both OTAs, `realization` nullptr the nominal
    /// process.
    [[nodiscard]] FilterPerformance
    measure(const FilterSizing& sizing, const FilterOtaSpecs* specs = nullptr,
            const process::Realization* realization = nullptr);

    /// Re-bind the nominal point at `sizing` and return V(vout)/V(vin)
    /// over freqs().
    /// \throws ypm::NumericalError if the DC operating point does not
    /// converge or the AC solve fails.
    [[nodiscard]] std::vector<std::complex<double>>
    transfer(const FilterSizing& sizing);

    [[nodiscard]] const std::vector<double>& freqs() const { return freqs_; }

    /// Geometry of every MOSFET (transistor kind), for mismatch sampling.
    [[nodiscard]] std::vector<process::MosGeometry> mos_geometries() const {
        return proto_.mos_geometries();
    }

private:
    [[nodiscard]] spice::DcResult
    bind_and_solve(const FilterSizing& sizing, const FilterOtaSpecs* specs,
                   const process::Realization* realization);

    const FilterEvaluator* evaluator_;
    spice::CircuitPrototype proto_;
    spice::CircuitPrototype::Instance inst_;
    spice::Capacitor *c1_, *c2_, *c3_;
    va::BehaviouralOta *ota1_, *ota2_; ///< nullptr for the transistor kind
    spice::NodeId vout_, vin_;
    std::vector<double> freqs_;
};

class FilterEvaluator {
public:
    FilterEvaluator(FilterConfig config, FilterSpecMask mask);

    /// The prototype pool's factory captures `this`, so copies rebuild
    /// their own pool instead of leasing prototypes bound to the source.
    FilterEvaluator(const FilterEvaluator& other);
    FilterEvaluator& operator=(const FilterEvaluator& other);

    /// Measure one sizing: a one-point lease of the prototype pool below.
    [[nodiscard]] FilterPerformance measure(const FilterSizing& sizing,
                                            OtaModelKind kind) const;

    /// Chunk kernel: evaluate a group of sizings through a leased warm
    /// filter prototype (persistent spice::PrototypePool keyed by the OTA
    /// model kind); element i is bit-identical to measure(sizings[i], kind).
    [[nodiscard]] std::vector<FilterPerformance>
    measure_chunk(std::span<const FilterSizing> sizings, OtaModelKind kind) const;

    /// The persistent prototype pool behind every measurement.
    [[nodiscard]] const spice::PrototypePool<FilterPrototype>& prototype_pool() const {
        return *pool_;
    }

    /// Lease a warm prototype of the given OTA model kind from the pool.
    [[nodiscard]] spice::PrototypePool<FilterPrototype>::Lease
    lease(OtaModelKind kind) const {
        return pool_->acquire(static_cast<std::uint64_t>(kind));
    }

    /// Response metrics from a computed transfer function (shared by every
    /// measurement path so they stay bit-identical).
    [[nodiscard]] FilterPerformance
    metrics_from_transfer(const std::vector<double>& freqs,
                          const std::vector<std::complex<double>>& h) const;

    /// Full AC response (Fig. 11 curve) at the nominal point (a one-point
    /// lease). \throws ypm::NumericalError if the DC operating point does
    /// not converge.
    struct Response {
        std::vector<double> freqs;
        std::vector<std::complex<double>> h;
    };
    [[nodiscard]] Response ac_response(const FilterSizing& sizing,
                                       OtaModelKind kind) const;

    [[nodiscard]] const FilterConfig& config() const { return config_; }
    [[nodiscard]] const FilterSpecMask& mask() const { return mask_; }

private:
    [[nodiscard]] std::shared_ptr<spice::PrototypePool<FilterPrototype>>
    make_pool() const;

    FilterConfig config_;
    FilterSpecMask mask_;
    std::shared_ptr<spice::PrototypePool<FilterPrototype>> pool_;
};

/// Variation model for behavioural-level filter Monte Carlo: the OTA macro
/// parameters wobble with the Δ(%) the flow extracted, capacitors with a
/// matching-grade sigma.
struct FilterVariation {
    double gain_delta_pct = 0.5; ///< 3-sigma relative gain spread (percent)
    double pm_delta_pct = 1.5;   ///< 3-sigma spread applied to f3db (percent)
    double cap_sigma_rel = 0.01; ///< 1-sigma relative capacitor spread
};

/// Yield of the behavioural filter against the mask under FilterVariation.
[[nodiscard]] mc::YieldEstimate
filter_yield_behavioural(const FilterEvaluator& evaluator,
                         const FilterSizing& sizing,
                         const FilterVariation& variation, std::size_t samples,
                         Rng& rng);

/// Yield of the transistor-level filter under full process + mismatch MC.
[[nodiscard]] mc::YieldEstimate
filter_yield_transistor(const FilterEvaluator& evaluator,
                        const FilterSizing& sizing,
                        const process::ProcessSampler& sampler,
                        std::size_t samples, Rng& rng);

} // namespace ypm::circuits
