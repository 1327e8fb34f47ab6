// Dat gather/scatter between global storage and each rank's renumbered
// element space (Fig 6b). The localized maps are built with the halo
// plan (builder.cpp).
#pragma once

#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/layout.hpp"

namespace op2ca::halo {

/// Gathers a global dat (row-major, `dim` values/element) into one rank's
/// local layout order (owned, exec layers, nonexec layers).
std::vector<double> gather_local(const std::vector<double>& global_data,
                                 int dim, const SetLayout& layout);

/// Layout-aware gather: the rank<->global transpose boundary of the SIMD
/// data plane. Writes straight into a `store`-arranged local array (`out`
/// must hold store.alloc_doubles(); padding slots are zeroed). With an
/// AoS descriptor this produces exactly gather_local's output.
void gather_local(const std::vector<double>& global_data,
                  const SetLayout& layout, const mesh::DatLayout& store,
                  double* out);

/// Scatters one rank's OWNED values back into the global array.
void scatter_owned(const std::vector<double>& local_data, int dim,
                   const SetLayout& layout, std::vector<double>* global_data);

/// Layout-aware scatter (inverse boundary transpose of the gather above).
void scatter_owned(const double* local_data, const SetLayout& layout,
                   const mesh::DatLayout& store,
                   std::vector<double>* global_data);

}  // namespace op2ca::halo
