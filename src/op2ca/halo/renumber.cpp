#include "op2ca/halo/renumber.hpp"

#include <algorithm>

#include "op2ca/util/error.hpp"

namespace op2ca::halo {

std::vector<double> gather_local(const std::vector<double>& global_data,
                                 int dim, const SetLayout& layout) {
  std::vector<double> local(static_cast<std::size_t>(layout.total) *
                            static_cast<std::size_t>(dim));
  for (lidx_t i = 0; i < layout.total; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    for (int d = 0; d < dim; ++d)
      local[static_cast<std::size_t>(i) * static_cast<std::size_t>(dim) +
            static_cast<std::size_t>(d)] =
          global_data[static_cast<std::size_t>(g) *
                          static_cast<std::size_t>(dim) +
                      static_cast<std::size_t>(d)];
  }
  return local;
}

void gather_local(const std::vector<double>& global_data,
                  const SetLayout& layout, const mesh::DatLayout& store,
                  double* out) {
  const int dim = store.dim;
  std::fill(out, out + store.alloc_doubles(), 0.0);
  for (lidx_t i = 0; i < layout.total; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    const double* row = global_data.data() +
                        static_cast<std::size_t>(g) *
                            static_cast<std::size_t>(dim);
    const std::size_t base = store.elem_offset(i);
    for (int d = 0; d < dim; ++d)
      out[base + static_cast<std::size_t>(d) *
                     static_cast<std::size_t>(store.cstride)] = row[d];
  }
}

void scatter_owned(const std::vector<double>& local_data, int dim,
                   const SetLayout& layout,
                   std::vector<double>* global_data) {
  OP2CA_REQUIRE(global_data != nullptr, "scatter_owned: null output");
  for (lidx_t i = 0; i < layout.num_owned; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    for (int d = 0; d < dim; ++d)
      (*global_data)[static_cast<std::size_t>(g) *
                         static_cast<std::size_t>(dim) +
                     static_cast<std::size_t>(d)] =
          local_data[static_cast<std::size_t>(i) *
                         static_cast<std::size_t>(dim) +
                     static_cast<std::size_t>(d)];
  }
}

void scatter_owned(const double* local_data, const SetLayout& layout,
                   const mesh::DatLayout& store,
                   std::vector<double>* global_data) {
  OP2CA_REQUIRE(global_data != nullptr, "scatter_owned: null output");
  const int dim = store.dim;
  for (lidx_t i = 0; i < layout.num_owned; ++i) {
    const gidx_t g = layout.local_to_global[static_cast<std::size_t>(i)];
    double* row = global_data->data() +
                  static_cast<std::size_t>(g) *
                      static_cast<std::size_t>(dim);
    const std::size_t base = store.elem_offset(i);
    for (int d = 0; d < dim; ++d)
      row[d] = local_data[base + static_cast<std::size_t>(d) *
                                     static_cast<std::size_t>(store.cstride)];
  }
}

}  // namespace op2ca::halo
