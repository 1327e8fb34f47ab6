// Dat gather/scatter between global storage and each rank's renumbered
// element space (Fig 6b). The localized maps are built with the halo
// plan (builder.cpp).
#pragma once

#include "op2ca/halo/halo_plan.hpp"

namespace op2ca::halo {

/// Gathers a global dat (row-major, `dim` values/element) into one rank's
/// local order (owned, exec layers, nonexec layers): `out` receives
/// layout.total rows.
void gather_local(const std::vector<double>& global_data, int dim,
                  const SetLayout& layout, double* out);

/// Scatters one rank's OWNED rows back into the global array.
void scatter_owned(const double* local_data, int dim, const SetLayout& layout,
                   std::vector<double>* global_data);

}  // namespace op2ca::halo
