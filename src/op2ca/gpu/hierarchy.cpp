#include "op2ca/gpu/hierarchy.hpp"

#include <algorithm>
#include <numeric>

#include "op2ca/util/error.hpp"

namespace op2ca::gpu {

namespace {

/// Unique valid targets of the FIRST view within element range [b, e) —
/// the block's shared-staging footprint. The primary view is the widest
/// indirect access of the loop (the caller orders views that way), which
/// is what the occupancy clamp has to fit.
lidx_t unique_targets_in(std::span<const mesh::ColourMapView> views,
                         lidx_t b, lidx_t e, LIdxVec* scratch) {
  scratch->clear();
  if (views.empty()) return 0;
  const mesh::ColourMapView& v = views.front();
  for (lidx_t i = b; i < e && i < v.num_elements; ++i)
    for (int k = 0; k < v.arity; ++k) {
      const lidx_t t = v.targets[static_cast<std::size_t>(i) * v.arity + k];
      if (t != kInvalidLocal) scratch->push_back(t);
    }
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
  return static_cast<lidx_t>(scratch->size());
}

}  // namespace

HierColouring hierarchical_colouring(
    lidx_t n, std::span<const mesh::ColourMapView> views, lidx_t block_elems,
    std::size_t shared_bytes, int max_dim) {
  OP2CA_REQUIRE(n >= 0, "hierarchical_colouring: negative element count");
  lidx_t be = std::max<lidx_t>(block_elems, 1);

  LIdxVec scratch;
  if (shared_bytes > 0 && max_dim > 0 && n > 0) {
    // Occupancy clamp: halve the block size until every block's unique
    // targets (times the widest dat row) fit the simulated shared
    // memory. Worst block governs — all blocks launch with one size.
    while (be > 1) {
      lidx_t worst = 0;
      for (lidx_t b = 0; b < n; b += be)
        worst = std::max(worst, unique_targets_in(
                                    views, b, std::min<lidx_t>(b + be, n),
                                    &scratch));
      const std::size_t need = static_cast<std::size_t>(worst) *
                               static_cast<std::size_t>(max_dim) *
                               sizeof(double);
      if (need <= shared_bytes) break;
      be /= 2;
    }
  }

  HierColouring h;
  h.blocks = mesh::block_colouring(n, views, std::max<lidx_t>(be, 2));
  // block_colouring degenerates to per-element colouring below 2; the
  // device schedule needs genuine blocks, so be >= 2 above and the
  // recorded block size is authoritative from here on.
  be = h.blocks.block_elems;
  const lidx_t nblocks = n > 0 ? (n + be - 1) / be : 0;

  // Outer phase lists: blocks of each outer colour, ascending.
  h.colour_blocks.assign(static_cast<std::size_t>(h.blocks.num_colours), {});
  for (lidx_t b = 0; b < nblocks; ++b)
    h.colour_blocks[static_cast<std::size_t>(
                        h.blocks.colour[static_cast<std::size_t>(b * be)])]
        .push_back(b);

  // Inner level: first-fit colouring of each block's elements against
  // the block's own conflicts. Global stamp arrays with a per-(block,
  // round) tick avoid clearing between blocks and never overflow a
  // fixed-width colour mask.
  h.elem_colour.assign(static_cast<std::size_t>(n), 0);
  h.block_rounds.assign(static_cast<std::size_t>(nblocks), 0);
  h.block_unique_targets.assign(static_cast<std::size_t>(nblocks), 0);
  std::vector<std::vector<int>> stamp(views.size());
  std::vector<std::vector<int>> stamp_colour(views.size());
  for (std::size_t v = 0; v < views.size(); ++v) {
    stamp[v].assign(static_cast<std::size_t>(views[v].num_targets), -1);
    stamp_colour[v].assign(static_cast<std::size_t>(views[v].num_targets), 0);
  }
  int tick = 0;
  for (lidx_t b = 0; b < nblocks; ++b) {
    const lidx_t lo = b * be;
    const lidx_t hi = std::min<lidx_t>(lo + be, n);
    h.block_unique_targets[static_cast<std::size_t>(b)] =
        unique_targets_in(views, lo, hi, &scratch);
    int rounds = 0;
    for (lidx_t i = lo; i < hi; ++i) {
      // Smallest colour not stamped by an earlier same-block element
      // sharing a target with i, scanning colours upward.
      int c = 0;
      for (bool clash = true; clash; ++c) {
        clash = false;
        for (std::size_t v = 0; v < views.size() && !clash; ++v) {
          const mesh::ColourMapView& mv = views[v];
          if (i >= mv.num_elements) continue;
          for (int k = 0; k < mv.arity; ++k) {
            const lidx_t t =
                mv.targets[static_cast<std::size_t>(i) * mv.arity + k];
            if (t == kInvalidLocal) continue;
            if (stamp[v][static_cast<std::size_t>(t)] == tick &&
                stamp_colour[v][static_cast<std::size_t>(t)] >= c) {
              clash = true;
              break;
            }
          }
        }
        if (clash && c > n) raise("inner colouring failed to converge");
      }
      --c;  // the for-update ran once past the accepted colour
      h.elem_colour[static_cast<std::size_t>(i)] = c;
      rounds = std::max(rounds, c + 1);
      for (std::size_t v = 0; v < views.size(); ++v) {
        const mesh::ColourMapView& mv = views[v];
        if (i >= mv.num_elements) continue;
        for (int k = 0; k < mv.arity; ++k) {
          const lidx_t t =
              mv.targets[static_cast<std::size_t>(i) * mv.arity + k];
          if (t == kInvalidLocal) continue;
          // Record the highest colour seen on this target this block.
          if (stamp[v][static_cast<std::size_t>(t)] != tick ||
              stamp_colour[v][static_cast<std::size_t>(t)] < c) {
            stamp[v][static_cast<std::size_t>(t)] = tick;
            stamp_colour[v][static_cast<std::size_t>(t)] = c;
          }
        }
      }
    }
    h.block_rounds[static_cast<std::size_t>(b)] = rounds;
    h.max_inner_colours = std::max(h.max_inner_colours, rounds);
    ++tick;
  }

  // Execution order: per block, elements stably sorted by (inner
  // colour, id) — round r of a block is a contiguous slice.
  h.block_order.resize(static_cast<std::size_t>(n));
  std::iota(h.block_order.begin(), h.block_order.end(), lidx_t{0});
  h.block_off.assign(static_cast<std::size_t>(nblocks) + 1, 0);
  for (lidx_t b = 0; b < nblocks; ++b) {
    const lidx_t lo = b * be;
    const lidx_t hi = std::min<lidx_t>(lo + be, n);
    std::stable_sort(h.block_order.begin() + lo, h.block_order.begin() + hi,
                     [&](lidx_t a, lidx_t c) {
                       return h.elem_colour[static_cast<std::size_t>(a)] <
                              h.elem_colour[static_cast<std::size_t>(c)];
                     });
    h.block_off[static_cast<std::size_t>(b)] = static_cast<std::size_t>(lo);
  }
  h.block_off[static_cast<std::size_t>(nblocks)] = static_cast<std::size_t>(n);
  return h;
}

mesh::Colouring sweep_colouring(const HierColouring& h) {
  mesh::Colouring out;
  out.num_colours = h.blocks.num_colours;
  out.colour = h.blocks.colour;
  out.block_elems = h.blocks.block_elems;
  out.ascending = false;
  out.classes.resize(h.colour_blocks.size());
  for (std::size_t c = 0; c < h.colour_blocks.size(); ++c)
    for (const lidx_t b : h.colour_blocks[c])
      out.classes[c].insert(
          out.classes[c].end(),
          h.block_order.begin() + static_cast<std::ptrdiff_t>(
                                      h.block_off[static_cast<std::size_t>(b)]),
          h.block_order.begin() +
              static_cast<std::ptrdiff_t>(
                  h.block_off[static_cast<std::size_t>(b) + 1]));
  return out;
}

bool hierarchical_valid(const HierColouring& h, lidx_t n,
                        std::span<const mesh::ColourMapView> views) {
  if (!mesh::colouring_valid(h.blocks, n, views)) return false;
  const lidx_t be = h.blocks.block_elems;
  if (static_cast<lidx_t>(h.elem_colour.size()) != n) return false;
  // Within a block, two same-inner-colour elements must not share a
  // target through any view.
  for (std::size_t v = 0; v < views.size(); ++v) {
    const mesh::ColourMapView& mv = views[v];
    // owner[t] = (block, colour) of the last element touching t.
    std::vector<std::pair<lidx_t, int>> owner(
        static_cast<std::size_t>(mv.num_targets), {kInvalidLocal, -1});
    for (lidx_t i = 0; i < std::min<lidx_t>(n, mv.num_elements); ++i) {
      const lidx_t b = i / be;
      const int c = h.elem_colour[static_cast<std::size_t>(i)];
      for (int k = 0; k < mv.arity; ++k) {
        const lidx_t t =
            mv.targets[static_cast<std::size_t>(i) * mv.arity + k];
        if (t == kInvalidLocal) continue;
        auto& o = owner[static_cast<std::size_t>(t)];
        if (o.first == b && o.second == c) return false;
        o = {b, c};
      }
    }
  }
  // block_order must be a per-block permutation sorted by inner colour.
  for (lidx_t b = 0; b < h.num_blocks(); ++b) {
    const std::size_t lo = h.block_off[static_cast<std::size_t>(b)];
    const std::size_t hi = h.block_off[static_cast<std::size_t>(b) + 1];
    int last = -1;
    LIdxVec ids(h.block_order.begin() + static_cast<std::ptrdiff_t>(lo),
                h.block_order.begin() + static_cast<std::ptrdiff_t>(hi));
    for (lidx_t e : ids) {
      if (e / be != b) return false;
      const int c = h.elem_colour[static_cast<std::size_t>(e)];
      if (c < last) return false;
      last = c;
    }
    std::sort(ids.begin(), ids.end());
    for (std::size_t j = 1; j < ids.size(); ++j)
      if (ids[j] == ids[j - 1]) return false;
  }
  return true;
}

SharedStaging build_shared_staging(const HierColouring& h, lidx_t b,
                                   const mesh::ColourMapView& view) {
  OP2CA_REQUIRE(b >= 0 && b < h.num_blocks(),
                "build_shared_staging: block out of range");
  const std::size_t lo = h.block_off[static_cast<std::size_t>(b)];
  const std::size_t hi = h.block_off[static_cast<std::size_t>(b) + 1];
  SharedStaging s;
  s.arity = view.arity;
  for (std::size_t j = lo; j < hi; ++j) {
    const lidx_t e = h.block_order[j];
    if (e >= view.num_elements) continue;
    for (int k = 0; k < view.arity; ++k) {
      const lidx_t t = view.targets[static_cast<std::size_t>(e) * view.arity + k];
      if (t != kInvalidLocal) s.targets.push_back(t);
    }
  }
  std::sort(s.targets.begin(), s.targets.end());
  s.targets.erase(std::unique(s.targets.begin(), s.targets.end()),
                  s.targets.end());
  s.slot.assign((hi - lo) * static_cast<std::size_t>(view.arity),
                kInvalidLocal);
  for (std::size_t j = lo; j < hi; ++j) {
    const lidx_t e = h.block_order[j];
    if (e >= view.num_elements) continue;
    for (int k = 0; k < view.arity; ++k) {
      const lidx_t t = view.targets[static_cast<std::size_t>(e) * view.arity + k];
      if (t == kInvalidLocal) continue;
      const auto it = std::lower_bound(s.targets.begin(), s.targets.end(), t);
      s.slot[(j - lo) * static_cast<std::size_t>(view.arity) +
             static_cast<std::size_t>(k)] =
          static_cast<lidx_t>(it - s.targets.begin());
    }
  }
  return s;
}

void staging_gather(const SharedStaging& s, const double* data,
                    const mesh::DatLayout* lay, int dim, double* out) {
  for (std::size_t r = 0; r < s.targets.size(); ++r) {
    const lidx_t t = s.targets[r];
    for (int c = 0; c < dim; ++c) {
      const std::size_t src =
          lay ? lay->offset(t, c)
              : static_cast<std::size_t>(t) * static_cast<std::size_t>(dim) +
                    static_cast<std::size_t>(c);
      out[r * static_cast<std::size_t>(dim) + static_cast<std::size_t>(c)] =
          data[src];
    }
  }
}

void staging_scatter(const SharedStaging& s, const double* in,
                     const mesh::DatLayout* lay, int dim, double* data) {
  for (std::size_t r = 0; r < s.targets.size(); ++r) {
    const lidx_t t = s.targets[r];
    for (int c = 0; c < dim; ++c) {
      const std::size_t dst =
          lay ? lay->offset(t, c)
              : static_cast<std::size_t>(t) * static_cast<std::size_t>(dim) +
                    static_cast<std::size_t>(c);
      data[dst] =
          in[r * static_cast<std::size_t>(dim) + static_cast<std::size_t>(c)];
    }
  }
}

}  // namespace op2ca::gpu
