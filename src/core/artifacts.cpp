#include "core/artifacts.hpp"

#include <filesystem>
#include <fstream>

#include "table/tbl_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "va/va_codegen.hpp"

namespace ypm::core {

namespace fs = std::filesystem;

ModelArtifacts write_artifacts(const std::vector<FrontPointData>& front,
                               const std::string& dir) {
    return write_artifacts(front, {}, dir);
}

ModelArtifacts write_artifacts(const std::vector<FrontPointData>& front,
                               const std::vector<FrontPointYield>& yields,
                               const std::string& dir) {
    if (front.size() < 3)
        throw InvalidInputError("write_artifacts: need >= 3 front points");

    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) throw IoError("write_artifacts: cannot create '" + dir + "'");

    ModelArtifacts art;
    art.dir = dir;

    std::vector<double> gains, pms, dgains, dpms, f3dbs;
    gains.reserve(front.size());
    for (const auto& p : front) {
        gains.push_back(p.gain_db);
        pms.push_back(p.pm_deg);
        dgains.push_back(p.dgain_pct);
        dpms.push_back(p.dpm_pct);
        f3dbs.push_back(p.f3db);
    }

    const auto join = [&](const std::string& name) {
        return (fs::path(dir) / name).string();
    };

    // 1-D variation tables (paper: gain_delta.tbl / pm_delta.tbl).
    art.gain_delta_tbl = join("gain_delta.tbl");
    table::write_tbl(art.gain_delta_tbl, table::make_tbl_1d(gains, dgains),
                     {"gain (dB) -> delta gain (%, 3sigma/mean)"});
    art.pm_delta_tbl = join("pm_delta.tbl");
    table::write_tbl(art.pm_delta_tbl, table::make_tbl_1d(pms, dpms),
                     {"phase margin (deg) -> delta pm (%, 3sigma/mean)"});

    // 2-D parameter tables (paper: lp1_data.tbl ... ), one per designable.
    const auto& names = circuits::OtaSizing::parameter_names();
    art.param_tbls.clear();
    for (std::size_t k = 0; k < names.size(); ++k) {
        std::vector<double> column;
        column.reserve(front.size());
        for (const auto& p : front) column.push_back(p.sizing.to_vector()[k]);
        const std::string path = join("lp" + std::to_string(k + 1) + "_data.tbl");
        table::write_tbl(path, table::make_tbl_2d(gains, pms, column),
                         {"(gain dB, pm deg) -> " + names[k] + " (m)"});
        art.param_tbls.push_back(path);
    }

    art.f3db_tbl = join("lp_f3db.tbl");
    table::write_tbl(art.f3db_tbl, table::make_tbl_2d(gains, pms, f3dbs),
                     {"(gain dB, pm deg) -> dominant pole f3db (Hz)"});

    // Full front as CSV for plotting.
    art.front_csv = join("pareto_front.csv");
    {
        std::ofstream f(art.front_csv);
        if (!f) throw IoError("write_artifacts: cannot write front csv");
        f << "design_id,gain_db,pm_deg,dgain_pct,dpm_pct,dgain_halfrange_pct,"
             "dpm_halfrange_pct,f3db_hz,gbw_hz,mc_failures,probe_yield";
        for (const auto& n : names) f << ',' << n;
        f << '\n';
        for (const auto& p : front) {
            f << p.design_id << ',' << str::fmt_double(p.gain_db) << ','
              << str::fmt_double(p.pm_deg) << ',' << str::fmt_double(p.dgain_pct)
              << ',' << str::fmt_double(p.dpm_pct) << ','
              << str::fmt_double(p.dgain_halfrange_pct) << ','
              << str::fmt_double(p.dpm_halfrange_pct) << ','
              << str::fmt_double(p.f3db) << ',' << str::fmt_double(p.gbw) << ','
              << p.mc_failures << ',' << str::fmt_double(p.probe_yield);
            for (double v : p.sizing.to_vector()) f << ',' << str::fmt_double(v);
            f << '\n';
        }
    }

    // Yield table: probe estimate vs certified estimate per design - the
    // two-tier calibration signal - plus, when the whole front is covered,
    // a (gain, pm) -> yield spline table for model back-annotation.
    if (!yields.empty()) {
        const auto front_of = [&](std::size_t design_id) -> const FrontPointData& {
            for (const auto& p : front)
                if (p.design_id == design_id) return p;
            throw InvalidInputError(
                "write_artifacts: yield row for unknown design_id " +
                std::to_string(design_id));
        };
        art.yield_csv = join("yield_front.csv");
        std::ofstream f(art.yield_csv);
        if (!f) throw IoError("write_artifacts: cannot write yield csv");
        f << "design_id,gain_db,pm_deg,probe_yield,yield,ci_low,ci_high,"
             "probe_delta,ess,samples,reached_target\n";
        for (const auto& y : yields) {
            const FrontPointData& p = front_of(y.design_id);
            const auto& est = y.result.estimate;
            f << y.design_id << ',' << str::fmt_double(p.gain_db) << ','
              << str::fmt_double(p.pm_deg) << ','
              << str::fmt_double(p.probe_yield) << ','
              << str::fmt_double(est.yield) << ','
              << str::fmt_double(est.ci_low) << ','
              << str::fmt_double(est.ci_high) << ','
              << str::fmt_double(p.probe_yield - est.yield) << ','
              << str::fmt_double(est.ess) << ',' << y.result.samples_used << ','
              << (y.result.reached_target ? 1 : 0) << '\n';
        }
        if (yields.size() == front.size()) {
            std::vector<double> ygains, ypms, yvals;
            ygains.reserve(yields.size());
            for (const auto& y : yields) {
                const FrontPointData& p = front_of(y.design_id);
                ygains.push_back(p.gain_db);
                ypms.push_back(p.pm_deg);
                yvals.push_back(y.result.estimate.yield);
            }
            art.yield_tbl = join("yield_front.tbl");
            table::write_tbl(art.yield_tbl,
                             table::make_tbl_2d(ygains, ypms, yvals),
                             {"(gain dB, pm deg) -> certified yield"});
        }
    }

    // Generated Verilog-A module (paper section 4.4 listing).
    va::VaModuleFiles files;
    files.gain_delta = "gain_delta.tbl";
    files.pm_delta = "pm_delta.tbl";
    for (std::size_t k = 0; k < names.size(); ++k)
        files.param_tables.push_back("lp" + std::to_string(k + 1) + "_data.tbl");
    art.va_module = join("ota_yield_model.va");
    va::write_va_module(art.va_module, files);

    return art;
}

std::vector<FrontPointData>
read_front_from_artifacts(const ModelArtifacts& artifacts) {
    const table::TblData gain_delta = table::read_tbl(artifacts.gain_delta_tbl);
    const table::TblData pm_delta = table::read_tbl(artifacts.pm_delta_tbl);
    const table::TblData f3db = table::read_tbl(artifacts.f3db_tbl);
    if (gain_delta.coord_columns != 1 || pm_delta.coord_columns != 1 ||
        f3db.coord_columns != 2)
        throw InvalidInputError("read_front_from_artifacts: unexpected table arity");

    const std::size_t n = gain_delta.samples();
    if (pm_delta.samples() != n || f3db.samples() != n)
        throw InvalidInputError("read_front_from_artifacts: table sizes differ");

    std::vector<table::TblData> params;
    params.reserve(artifacts.param_tbls.size());
    for (const auto& path : artifacts.param_tbls) {
        params.push_back(table::read_tbl(path));
        if (params.back().samples() != n || params.back().coord_columns != 2)
            throw InvalidInputError("read_front_from_artifacts: bad param table '" +
                                    path + "'");
    }
    if (params.size() != circuits::OtaSizing::parameter_count)
        throw InvalidInputError("read_front_from_artifacts: expected 8 param tables");

    std::vector<FrontPointData> front(n);
    for (std::size_t i = 0; i < n; ++i) {
        front[i].design_id = i + 1;
        front[i].gain_db = gain_delta.coords[i][0];
        front[i].dgain_pct = gain_delta.values[i];
        front[i].pm_deg = pm_delta.coords[i][0];
        front[i].dpm_pct = pm_delta.values[i];
        front[i].f3db = f3db.values[i];
        std::vector<double> sizing(circuits::OtaSizing::parameter_count);
        for (std::size_t k = 0; k < params.size(); ++k)
            sizing[k] = params[k].values[i];
        front[i].sizing = circuits::OtaSizing::from_vector(sizing);
    }
    return front;
}

} // namespace ypm::core
