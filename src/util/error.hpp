#pragma once
/// \file error.hpp
/// \brief Exception types used across the ypm library.

#include <stdexcept>
#include <string>

namespace ypm {

/// Base class for every error raised by the library.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when user-supplied input (table file, control string,
/// configuration value) cannot be accepted.
class InvalidInputError : public Error {
public:
    explicit InvalidInputError(const std::string& what) : Error(what) {}
};

/// Raised when a numerical procedure fails (singular matrix, Newton
/// non-convergence, spline over degenerate data).
class NumericalError : public Error {
public:
    explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Raised when a table-model lookup falls outside the sampled data and the
/// control string forbids extrapolation (Verilog-A "E" behaviour).
class RangeError : public Error {
public:
    explicit RangeError(const std::string& what) : Error(what) {}
};

/// Raised on file-system level problems (missing .tbl file, unwritable
/// artefact directory).
class IoError : public Error {
public:
    explicit IoError(const std::string& what) : Error(what) {}
};

} // namespace ypm
