#include "va/va_codegen.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace ypm::va {

namespace {

constexpr const char* kModuleName = "ota_yield_model";
/// $table_model() control strings (paper section 3.5): cubic spline, no
/// extrapolation.
constexpr const char* kControl1d = "3E";
constexpr const char* kControl2d = "3E,3E";
constexpr double kRout = 1e6; ///< ro of the output contribution

} // namespace

std::string generate_va_module(const VaModuleFiles& files) {
    if (files.param_tables.empty())
        throw InvalidInputError("generate_va_module: need >= 1 parameter table");

    std::ostringstream os;
    os << "// Generated by ypm - combined performance and variation\n"
          "// behavioural model (Ali et al., DATE 2008, section 4.4).\n"
          "`include \"constants.vams\"\n"
          "`include \"disciplines.vams\"\n"
          "\n"
          "module "
       << kModuleName
       << "(inp, inn, out);\n"
          "  inout inp, inn, out;\n"
          "  electrical inp, inn, out;\n"
          "\n"
          "  parameter real gain = 50.0;   // required open-loop gain (dB)\n"
          "  parameter real pm   = 74.0;   // required phase margin (deg)\n"
          "  parameter real ro   = "
       << kRout
       << ";\n"
          "\n"
          "  real gain_delta, pm_delta, gain_prop, pm_prop, gain_in_v;\n";
    for (std::size_t i = 0; i < files.param_tables.size(); ++i)
        os << "  real lp" << i + 1 << ";\n";
    os << "  integer fptr;\n"
          "\n"
          "  analog begin\n"
          "\n"
          "    // Interpolate the performance variation at the required spec\n"
          "    // and inflate the target so the worst-case sample still meets\n"
          "    // it (yield targeting, paper Table 3).\n"
          "    gain_delta = $table_model(gain, \""
       << files.gain_delta << "\", \"" << kControl1d
       << "\");\n"
          "    pm_delta   = $table_model(pm, \""
       << files.pm_delta << "\", \"" << kControl1d
       << "\");\n"
          "    gain_prop = ((gain_delta/100)*gain)+gain;\n"
          "    pm_prop   = ((pm_delta/100)*pm)+pm;\n"
          "    $display(\"Propose Gain : %e\", gain_prop);\n"
          "    $display(\"Propose PM   : %e\", pm_prop);\n"
          "\n"
          "    // Interpolate the designable parameters for the inflated\n"
          "    // performance target from the Pareto-front tables.\n";
    for (std::size_t i = 0; i < files.param_tables.size(); ++i)
        os << "    lp" << i + 1 << " = $table_model(gain_prop, pm_prop, \""
           << files.param_tables[i] << "\", \"" << kControl2d << "\");\n";
    os << "\n"
          "    fptr = $fopen(\""
       << files.params_out
       << "\");\n"
          "    $fwrite(fptr, \"\\n Generated Design Parameters\\n \");\n"
          "    $fwrite(fptr, \"";
    for (std::size_t i = 0; i < files.param_tables.size(); ++i)
        os << "%e" << (i + 1 < files.param_tables.size() ? " " : "");
    os << "\", ";
    for (std::size_t i = 0; i < files.param_tables.size(); ++i)
        os << "lp" << i + 1 << (i + 1 < files.param_tables.size() ? ", " : "");
    os << ");\n"
          "    $fclose(fptr);\n"
          "\n"
          "    // Output contribution with the proposed gain.\n"
          "    gain_in_v = pow(10, gain_prop/20);\n"
          "    V(out) <+ (V(inp) - V(inn))*gain_in_v - I(out)*ro;\n"
          "\n"
          "  end\n"
          "endmodule\n";
    return os.str();
}

void write_va_module(const std::string& path, const VaModuleFiles& files) {
    std::ofstream f(path);
    if (!f) throw IoError("va_codegen: cannot open '" + path + "' for writing");
    f << generate_va_module(files);
    if (!f) throw IoError("va_codegen: write failed for '" + path + "'");
}

} // namespace ypm::va
