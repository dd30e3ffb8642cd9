#include "process/variation.hpp"

namespace ypm::process {

VariationSpec VariationSpec::c35() {
    return VariationSpec{}; // defaults are the c35-class numbers
}

} // namespace ypm::process
