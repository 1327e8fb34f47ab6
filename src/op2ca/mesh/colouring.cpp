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

/// Blocks of `block` elements covering [0, n).
lidx_t num_blocks(lidx_t n, lidx_t block) {
  return n / block + (n % block != 0 ? 1 : 0);
}

/// Calls f(v, t) for every target t of element e through view v,
/// skipping kInvalidLocal entries.
template <typename F>
void for_each_target(std::span<const ColourMapView> views, lidx_t e, F&& f) {
  for (std::size_t v = 0; v < views.size(); ++v) {
    const ColourMapView& view = views[v];
    const lidx_t* row = view.targets + static_cast<std::size_t>(e) *
                                           static_cast<std::size_t>(view.arity);
    for (int k = 0; k < view.arity; ++k)
      if (row[k] != kInvalidLocal) f(v, row[k]);
  }
}

}  // namespace

Colouring block_colouring(lidx_t n, std::span<const ColourMapView> views,
                          lidx_t block_elems) {
  block_elems = std::max<lidx_t>(block_elems, 1);
  for (const ColourMapView& v : views)
    OP2CA_REQUIRE(v.num_elements >= n,
                  "block_colouring: view covers fewer rows than the set");

  Colouring out;
  out.block_elems = block_elems;
  const lidx_t nblocks = num_blocks(n, block_elems);
  out.colour.assign(static_cast<std::size_t>(nblocks), 0);
  ColourMasks masks(views);

  for (lidx_t b = 0; b < nblocks; ++b) {
    const lidx_t b0 = b * block_elems;
    const lidx_t b1 = std::min<lidx_t>(n, b0 + block_elems);
    int c = -1;
    while (c < 0) {
      std::vector<std::uint64_t> forbidden(masks.words, 0);
      for (lidx_t e = b0; e < b1; ++e)
        for_each_target(views, e, [&](std::size_t v, lidx_t t) {
          const std::uint64_t* m = masks.mask(v, t);
          for (std::size_t w = 0; w < masks.words; ++w) forbidden[w] |= m[w];
        });
      for (std::size_t w = 0; w < masks.words && c < 0; ++w) {
        if (forbidden[w] == ~std::uint64_t{0}) continue;
        const int bit = std::countr_one(forbidden[w]);
        c = static_cast<int>(w * 64) + bit;
      }
      if (c < 0) masks.widen();
    }
    out.num_colours = std::max(out.num_colours, c + 1);
    out.colour[static_cast<std::size_t>(b)] = c;
    for (lidx_t e = b0; e < b1; ++e)
      for_each_target(views, e, [&](std::size_t v, lidx_t t) {
        masks.mask(v, t)[static_cast<std::size_t>(c) / 64] |=
            std::uint64_t{1} << (static_cast<std::size_t>(c) % 64);
      });
  }

  out.classes.resize(static_cast<std::size_t>(out.num_colours));
  for (lidx_t b = 0; b < nblocks; ++b)
    out.classes[static_cast<std::size_t>(
                    out.colour[static_cast<std::size_t>(b)])]
        .push_back(b);
  return out;
}

bool colouring_valid(const Colouring& c, lidx_t n,
                     std::span<const ColourMapView> views) {
  const lidx_t block = std::max<lidx_t>(1, c.block_elems);
  const lidx_t nblocks = num_blocks(n, block);
  if (static_cast<lidx_t>(c.colour.size()) != nblocks) return false;
  lidx_t listed = 0;
  for (std::size_t k = 0; k < c.classes.size(); ++k) {
    // claimed[v][t] = the block of this class that touched target t.
    std::vector<std::vector<lidx_t>> claimed;
    for (const ColourMapView& v : views)
      claimed.emplace_back(static_cast<std::size_t>(v.num_targets),
                           kInvalidLocal);
    lidx_t prev = -1;
    for (const lidx_t b : c.classes[k]) {
      // Strictly ascending ids under their own colour: with the count
      // below, the classes partition the blocks.
      if (b <= prev || b >= nblocks ||
          c.colour[static_cast<std::size_t>(b)] != static_cast<int>(k))
        return false;
      prev = b;
      ++listed;
      bool shared = false;
      for (lidx_t e = b * block; e < std::min(n, (b + 1) * block); ++e)
        for_each_target(views, e, [&](std::size_t v, lidx_t t) {
          lidx_t& owner = claimed[v][static_cast<std::size_t>(t)];
          shared |= owner != kInvalidLocal && owner != b;
          owner = b;
        });
      if (shared) return false;
    }
  }
  return listed == nblocks;
}

}  // namespace op2ca::mesh
