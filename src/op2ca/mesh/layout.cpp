#include "op2ca/mesh/layout.hpp"

#include <cstring>
#include "op2ca/util/error.hpp"

#include "op2ca/util/aligned.hpp"

namespace op2ca::mesh {

namespace {

// Doubles per cache line; element-count padding granularity.
constexpr lidx_t kLineDoubles =
    static_cast<lidx_t>(util::kCacheLine / sizeof(double));

lidx_t round_up_line(lidx_t n) {
  return (n + kLineDoubles - 1) & ~(kLineDoubles - 1);
}

bool is_pow2(lidx_t n) { return n > 0 && (n & (n - 1)) == 0; }

int log2_pow2(lidx_t n) {
  int s = 0;
  while ((lidx_t{1} << s) < n) ++s;
  return s;
}

}  // namespace

const char* layout_name(LayoutKind k) {
  switch (k) {
    case LayoutKind::AoS:
      return "aos";
    case LayoutKind::SoA:
      return "soa";
    case LayoutKind::AoSoA:
      return "aosoa";
  }
  return "?";
}

LayoutKind layout_by_name(const std::string& name) {
  if (name == "aos") return LayoutKind::AoS;
  if (name == "soa") return LayoutKind::SoA;
  if (name == "aosoa") return LayoutKind::AoSoA;
  raise("unknown layout '" + name +
                              "' (expected aos|soa|aosoa)");
}

bool LayoutConfig::enabled() const {
  if (kind != LayoutKind::AoS) return true;
  for (const auto& [_, k] : per_set)
    if (k != LayoutKind::AoS) return true;
  for (const auto& [_, k] : per_dat)
    if (k != LayoutKind::AoS) return true;
  return false;
}

LayoutKind LayoutConfig::resolve(const std::string& set,
                                 const std::string& dat) const {
  if (auto it = per_dat.find(dat); it != per_dat.end()) return it->second;
  if (auto it = per_set.find(set); it != per_set.end()) return it->second;
  return kind;
}

DatLayout DatLayout::make(LayoutKind kind, int dim, lidx_t elems,
                          lidx_t aosoa_block) {
  if (dim <= 0) raise("DatLayout: dim must be > 0");
  if (elems < 0) raise("DatLayout: elems must be >= 0");

  DatLayout lay;
  lay.kind = kind;
  lay.dim = dim;
  lay.elems = elems;

  switch (kind) {
    case LayoutKind::AoS:
      // Plain rows: bitwise-identical addressing to the legacy layout.
      lay.block = 1;
      lay.padded = elems;
      lay.cstride = 1;
      lay.bshift = 0;
      lay.bmask = 0;
      lay.brow = static_cast<std::size_t>(dim);
      break;
    case LayoutKind::SoA:
      // One block spanning every element: pad the plane length so each
      // component starts cache-aligned, and pick a shift past any valid
      // lidx_t so i >> bshift is always 0 (no second block exists).
      lay.padded = round_up_line(elems);
      lay.block = lay.padded;
      lay.cstride = lay.padded;
      lay.bshift = 30;
      lay.bmask = (lidx_t{1} << 30) - 1;
      lay.brow = 0;  // never reached: i >> 30 == 0 for valid indices
      break;
    case LayoutKind::AoSoA:
      if (!is_pow2(aosoa_block))
        raise(
            "DatLayout: aosoa_block must be a power of two");
      lay.block = aosoa_block;
      lay.padded =
          ((elems + aosoa_block - 1) / aosoa_block) * aosoa_block;
      lay.cstride = aosoa_block;
      lay.bshift = log2_pow2(aosoa_block);
      lay.bmask = aosoa_block - 1;
      lay.brow = static_cast<std::size_t>(aosoa_block) *
                 static_cast<std::size_t>(dim);
      break;
  }
  return lay;
}

// Empty arrays may hand in null pointers, which memcpy/memset must never
// see, so both transposes return before touching an empty layout.

void to_layout(const double* aos_rows, const DatLayout& lay, double* out) {
  if (lay.alloc_doubles() == 0) return;
  if (lay.is_aos()) {
    std::memcpy(out, aos_rows,
                static_cast<std::size_t>(lay.elems) * lay.dim *
                    sizeof(double));
    return;
  }
  std::memset(out, 0, lay.alloc_doubles() * sizeof(double));
  for (lidx_t i = 0; i < lay.elems; ++i) {
    const double* row = aos_rows + static_cast<std::size_t>(i) * lay.dim;
    const std::size_t base = lay.elem_offset(i);
    for (int c = 0; c < lay.dim; ++c)
      out[base + static_cast<std::size_t>(c) * lay.cstride] = row[c];
  }
}

void from_layout(const double* data, const DatLayout& lay,
                 double* aos_rows) {
  if (lay.alloc_doubles() == 0) return;
  if (lay.is_aos()) {
    std::memcpy(aos_rows, data,
                static_cast<std::size_t>(lay.elems) * lay.dim *
                    sizeof(double));
    return;
  }
  for (lidx_t i = 0; i < lay.elems; ++i) {
    double* row = aos_rows + static_cast<std::size_t>(i) * lay.dim;
    const std::size_t base = lay.elem_offset(i);
    for (int c = 0; c < lay.dim; ++c)
      row[c] = data[base + static_cast<std::size_t>(c) * lay.cstride];
  }
}

}  // namespace op2ca::mesh
