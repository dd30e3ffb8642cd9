#pragma once
/// \file va_codegen.hpp
/// \brief Verilog-A source generator.
///
/// The paper's deliverable is a Verilog-A module whose $table_model() calls
/// read the performance/variation tables produced by the flow (section 4.4
/// listing). Spectre is not available offline, so the module text itself is
/// generated as an artefact - byte-for-byte in the paper's structure - and
/// its semantics execute natively through va::BehaviouralOta plus
/// table::TableModel1d / table::ParetoTable.

#include <string>
#include <vector>

namespace ypm::va {

/// File names referenced by the generated module.
struct VaModuleFiles {
    std::string gain_delta = "gain_delta.tbl";
    std::string pm_delta = "pm_delta.tbl";
    /// Per-designable-parameter tables, e.g. {"lp1_data.tbl", ...}.
    std::vector<std::string> param_tables;
    std::string params_out = "params.dat";
};

/// Generate the complete Verilog-A module text (the paper's section 4.4
/// listing generalised to N designable parameters): module
/// ota_yield_model, cubic $table_model() controls without extrapolation
/// ("3E", paper section 3.5) and a 1 MOhm output resistance.
[[nodiscard]] std::string generate_va_module(const VaModuleFiles& files);

/// Write the module to a file. \throws ypm::IoError on failure.
void write_va_module(const std::string& path, const VaModuleFiles& files);

} // namespace ypm::va
