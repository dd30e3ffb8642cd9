#pragma once
/// \file mosfet.hpp
/// \brief EKV-style MOSFET large/small-signal model.
///
/// Substitute for the BSim3v3 foundry models the paper simulates with (see
/// DESIGN.md section 2). The drain current uses the single-expression EKV
/// interpolation
///
///   Id = 2 n beta Vt^2 [ ln^2(1+e^{(vgs-vth)/(2 n Vt)})
///                       - ln^2(1+e^{(vgs-vth-n vds)/(2 n Vt)}) ] (1 + lambda vds)
///
/// which is smooth from weak to strong inversion and from triode to
/// saturation - exactly what a Newton loop driven by a genetic optimiser
/// needs (10,000 sizings must all converge). Body effect shifts vth with
/// the standard sqrt law; channel-length modulation scales with 1/L.
/// Small-signal capacitances use Meyer's region-wise gate partitioning plus
/// constant junction terms.

#include "process/process_card.hpp"
#include "process/sampler.hpp"
#include "spice/device.hpp"

namespace ypm::spice {

class Mosfet final : public Device {
public:
    enum class Type { nmos, pmos };

    /// Operating regions reported for diagnostics and testbench assertions.
    enum class Region { cutoff, triode, saturation };

    /// Large- and small-signal data at one bias point, in *terminal* space:
    /// id flows into the drain terminal; g_dX = d(id)/d(V_X).
    struct OpInfo {
        double id = 0.0;
        double g_dg = 0.0, g_dd = 0.0, g_ds = 0.0, g_db = 0.0;
        double vgs = 0.0, vds = 0.0, vsb = 0.0; ///< polarity-normalised
        double vth = 0.0;   ///< effective threshold (magnitude space)
        double vdsat = 0.0; ///< saturation voltage estimate
        Region region = Region::cutoff;
        /// Meyer + junction small-signal capacitances (F).
        double cgs = 0.0, cgd = 0.0, cgb = 0.0, cdb = 0.0, csb = 0.0;

        /// Conventional named small-signal parameters (normal orientation):
        /// gm = g_dg, gds = g_dd, gmb = g_db.
        [[nodiscard]] double gm() const { return g_dg; }
        [[nodiscard]] double gds() const { return g_dd; }
        [[nodiscard]] double gmb() const { return g_db; }
    };

    Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b, Type type,
           process::MosModelParams model, double w, double l);

    [[nodiscard]] bool nonlinear() const override { return true; }

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

    /// Evaluate the model at the given solution (used by testbenches and
    /// unit tests to inspect gm/gds/regions).
    [[nodiscard]] OpInfo op_info(const Solution& x) const;

    /// Evaluate at explicit terminal voltages.
    [[nodiscard]] OpInfo evaluate(double vd, double vg, double vs, double vb) const;

    /// Apply a process/mismatch delta (threshold shift, KP and Cox scale).
    void apply_delta(const process::MosDelta& delta) { delta_ = delta; }
    [[nodiscard]] const process::MosDelta& delta() const { return delta_; }

    [[nodiscard]] bool is_pmos() const { return type_ == Type::pmos; }
    [[nodiscard]] double width() const { return w_; }
    [[nodiscard]] double length() const { return l_; }
    void set_geometry(double w, double l);
    [[nodiscard]] const process::MosModelParams& model() const { return model_; }

    [[nodiscard]] NodeId drain() const { return d_; }
    [[nodiscard]] NodeId gate() const { return g_; }
    [[nodiscard]] NodeId source() const { return s_; }
    [[nodiscard]] NodeId bulk() const { return b_; }

private:
    /// Core polarity-normalised evaluation with vds >= 0 guaranteed by the
    /// caller (source/drain swap handled in evaluate()).
    struct CoreOp {
        double id, gm, gds, gmb;
        double vth, vdsat;
        Region region;
    };
    [[nodiscard]] CoreOp core(double vgs, double vds, double vsb) const;

    NodeId d_, g_, s_, b_;
    Type type_;
    process::MosModelParams model_;
    double w_, l_;
    process::MosDelta delta_;
};

[[nodiscard]] const char* to_string(Mosfet::Region region);

} // namespace ypm::spice
