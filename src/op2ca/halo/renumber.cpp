#include "op2ca/halo/renumber.hpp"

#include <algorithm>

#include "op2ca/util/error.hpp"

namespace op2ca::halo {

void gather_local(const std::vector<double>& global_data, int dim,
                  const SetLayout& layout, double* out) {
  const auto row = static_cast<std::size_t>(dim);
  for (lidx_t i = 0; i < layout.total; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    std::copy_n(global_data.data() + static_cast<std::size_t>(g) * row, row,
                out + static_cast<std::size_t>(i) * row);
  }
}

void scatter_owned(const double* local_data, int dim, const SetLayout& layout,
                   std::vector<double>* global_data) {
  OP2CA_REQUIRE(global_data != nullptr, "scatter_owned: null output");
  const auto row = static_cast<std::size_t>(dim);
  for (lidx_t i = 0; i < layout.num_owned; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    std::copy_n(local_data + static_cast<std::size_t>(i) * row, row,
                global_data->data() + static_cast<std::size_t>(g) * row);
  }
}

}  // namespace op2ca::halo
