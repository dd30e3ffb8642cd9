#pragma once
/// \file mna_capture.hpp
/// \brief The OTA testbench's MNA linear systems, captured at seeded
///        (sizing, process) points exactly as the DC Newton loop and the AC
///        sweep build them, so LU tests and benches run on the production
///        matrix shapes and zero patterns rather than on random dense input.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace ypm::testsupport {

/// One linear system A x = b.
template <typename T>
struct LinearSystem {
    linalg::Matrix<T> a;
    std::vector<T> b;
};

struct OtaMnaCapture {
    std::size_t points = 0;      ///< points whose DC operating point converged
    std::size_t frequencies = 0; ///< AC systems per point
    /// Per point and sweep frequency, in order: the recorded AC stamps
    /// replayed into a zeroed matrix (AcTermRecorder::replay_matrix), plus
    /// the 1e-15 node floor, and the recorded rhs - what the AC sweep solves.
    std::vector<LinearSystem<std::complex<double>>> ac;
    /// Per point, the DC Newton Jacobian and rhs (RealStamper with the
    /// default gmin floor) at three iterates: the cold start, halfway to the
    /// operating point and at the operating point.
    std::vector<LinearSystem<double>> dc;
};

/// Capture `points` OTA points: sizings uniform in the Table 1 box, each
/// with one c35 process realisation, all drawn from Rng(seed). Points whose
/// DC solve does not converge are skipped and replaced by further draws.
[[nodiscard]] OtaMnaCapture capture_ota_mna(std::size_t points,
                                            std::uint64_t seed);

} // namespace ypm::testsupport
