#include "op2ca/mesh/colouring.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "op2ca/util/error.hpp"

namespace op2ca::mesh {
namespace {

/// Per-target bitmask of colours already claimed, `words` 64-bit words
/// per target across all views (targets of view v live at offset[v]).
struct ColourMasks {
  std::vector<std::uint64_t> bits;
  std::vector<std::size_t> offset;  ///< per view, in targets.
  std::size_t words = 1;
  std::size_t targets = 0;

  explicit ColourMasks(std::span<const ColourMapView> views) {
    offset.reserve(views.size());
    for (const ColourMapView& v : views) {
      offset.push_back(targets);
      targets += static_cast<std::size_t>(v.num_targets);
    }
    bits.assign(targets, 0);
  }

  std::uint64_t* mask(std::size_t view, lidx_t t) {
    return bits.data() +
           (offset[view] + static_cast<std::size_t>(t)) * words;
  }

  /// Doubles capacity: conflict degrees exceeding 64 * words colours.
  void widen() {
    std::vector<std::uint64_t> wide(targets * (words + 1), 0);
    for (std::size_t t = 0; t < targets; ++t)
      for (std::size_t w = 0; w < words; ++w)
        wide[t * (words + 1) + w] = bits[t * words + w];
    bits = std::move(wide);
    ++words;
  }
};

}  // namespace

Colouring block_colouring(lidx_t n, std::span<const ColourMapView> views,
                          lidx_t block_elems) {
  block_elems = std::max<lidx_t>(block_elems, 1);
  for (const ColourMapView& v : views)
    OP2CA_REQUIRE(v.num_elements >= n,
                  "block_colouring: view covers fewer rows than the set");

  Colouring out;
  out.block_elems = block_elems;
  out.colour.assign(static_cast<std::size_t>(n), 0);
  ColourMasks masks(views);

  for (lidx_t b0 = 0; b0 < n; b0 += block_elems) {
    const lidx_t b1 = std::min<lidx_t>(n, b0 + block_elems);
    int c = -1;
    while (c < 0) {
      std::vector<std::uint64_t> forbidden(masks.words, 0);
      for (lidx_t e = b0; e < b1; ++e)
        for (std::size_t v = 0; v < views.size(); ++v) {
          const ColourMapView& view = views[v];
          for (int k = 0; k < view.arity; ++k) {
            const lidx_t t =
                view.targets[static_cast<std::size_t>(e) *
                                 static_cast<std::size_t>(view.arity) +
                             static_cast<std::size_t>(k)];
            if (t == kInvalidLocal) continue;
            const std::uint64_t* m = masks.mask(v, t);
            for (std::size_t w = 0; w < masks.words; ++w)
              forbidden[w] |= m[w];
          }
        }
      for (std::size_t w = 0; w < masks.words && c < 0; ++w) {
        if (forbidden[w] == ~std::uint64_t{0}) continue;
        const int bit = std::countr_one(forbidden[w]);
        c = static_cast<int>(w * 64) + bit;
      }
      if (c < 0) masks.widen();
    }
    out.num_colours = std::max(out.num_colours, c + 1);
    for (lidx_t e = b0; e < b1; ++e) {
      out.colour[static_cast<std::size_t>(e)] = c;
      for (std::size_t v = 0; v < views.size(); ++v) {
        const ColourMapView& view = views[v];
        for (int k = 0; k < view.arity; ++k) {
          const lidx_t t =
              view.targets[static_cast<std::size_t>(e) *
                               static_cast<std::size_t>(view.arity) +
                           static_cast<std::size_t>(k)];
          if (t == kInvalidLocal) continue;
          masks.mask(v, t)[static_cast<std::size_t>(c) / 64] |=
              std::uint64_t{1} << (static_cast<std::size_t>(c) % 64);
        }
      }
    }
  }

  out.classes.resize(static_cast<std::size_t>(out.num_colours));
  for (lidx_t e = 0; e < n; ++e)
    out.classes[static_cast<std::size_t>(out.colour[static_cast<std::size_t>(e)])]
        .push_back(e);
  return out;
}

bool colouring_valid(const Colouring& c, lidx_t n,
                     std::span<const ColourMapView> views) {
  if (static_cast<lidx_t>(c.colour.size()) != n) return false;
  const lidx_t block = std::max<lidx_t>(1, c.block_elems);
  // claimed[v][t] = block that most recently touched target t in the
  // colour class being checked (one pass per colour). The conflict-free
  // unit is the block: a parallel sweep never splits one.
  for (const LIdxVec& cls : c.classes) {
    std::vector<std::vector<lidx_t>> claimed;
    for (const ColourMapView& v : views)
      claimed.emplace_back(static_cast<std::size_t>(v.num_targets),
                           kInvalidLocal);
    for (lidx_t e : cls) {
      const lidx_t blk = e / block;
      for (std::size_t v = 0; v < views.size(); ++v) {
        const ColourMapView& view = views[v];
        for (int k = 0; k < view.arity; ++k) {
          const lidx_t t =
              view.targets[static_cast<std::size_t>(e) *
                               static_cast<std::size_t>(view.arity) +
                           static_cast<std::size_t>(k)];
          if (t == kInvalidLocal) continue;
          lidx_t& owner = claimed[v][static_cast<std::size_t>(t)];
          if (owner != kInvalidLocal && owner != blk) return false;
          owner = blk;
        }
      }
    }
  }
  return true;
}

}  // namespace op2ca::mesh
