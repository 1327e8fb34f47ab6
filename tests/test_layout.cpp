// Property suite for the SIMD data plane (mesh/layout + the layout-aware
// halo pack): descriptor invariants, transpose round-trips, AoSoA tail
// blocks, aligned storage, wire-format equality between the reference and
// plan-driven grouped packs, and the rank<->global boundary transposes.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/hex3d.hpp"
#include "op2ca/mesh/layout.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/util/aligned.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/rng.hpp"

namespace op2ca {
namespace {

using mesh::DatLayout;
using mesh::LayoutKind;

std::vector<double> random_rows(lidx_t elems, int dim, std::uint64_t seed) {
  std::vector<double> rows(static_cast<std::size_t>(elems) *
                           static_cast<std::size_t>(dim));
  Rng rng(seed);
  for (auto& v : rows) v = rng.next_range(-2.0, 2.0);
  return rows;
}

TEST(DatLayout, AosIsLegacyRowMajor) {
  const DatLayout lay = DatLayout::make(LayoutKind::AoS, 5, 37, 8);
  EXPECT_EQ(lay.padded, 37);
  EXPECT_EQ(lay.cstride, 1);
  EXPECT_EQ(lay.alloc_doubles(), 37u * 5u);
  for (lidx_t i = 0; i < 37; ++i)
    for (int c = 0; c < 5; ++c)
      EXPECT_EQ(lay.offset(i, c),
                static_cast<std::size_t>(i) * 5 + static_cast<std::size_t>(c));
}

TEST(DatLayout, SoaComponentPlanesAreUnitStride) {
  const DatLayout lay = DatLayout::make(LayoutKind::SoA, 3, 37, 8);
  EXPECT_GE(lay.padded, 37);
  EXPECT_EQ(lay.padded % 8, 0) << "planes must start cache-aligned";
  EXPECT_EQ(lay.cstride, lay.padded);
  for (lidx_t i = 0; i + 1 < 37; ++i)
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(lay.offset(i + 1, c), lay.offset(i, c) + 1)
          << "component " << c << " not unit-stride at " << i;
}

TEST(DatLayout, AosoaTailBlocks) {
  // 13 elements in blocks of 4: three full blocks + one tail block,
  // padded to 16 slots.
  const DatLayout lay = DatLayout::make(LayoutKind::AoSoA, 2, 13, 4);
  EXPECT_EQ(lay.block, 4);
  EXPECT_EQ(lay.padded, 16);
  EXPECT_EQ(lay.cstride, 4);
  EXPECT_EQ(lay.alloc_doubles(), 32u);
  // Within a block, components are SoA; across blocks, rows of B*dim.
  EXPECT_EQ(lay.offset(0, 0), 0u);
  EXPECT_EQ(lay.offset(1, 0), 1u);
  EXPECT_EQ(lay.offset(0, 1), 4u);
  EXPECT_EQ(lay.offset(4, 0), 8u);   // second block
  EXPECT_EQ(lay.offset(12, 1), 28u); // tail block
}

TEST(DatLayout, OffsetsAreABijectionIntoAllocation) {
  for (const LayoutKind kind :
       {LayoutKind::AoS, LayoutKind::SoA, LayoutKind::AoSoA}) {
    const DatLayout lay = DatLayout::make(kind, 3, 29, 8);
    std::set<std::size_t> seen;
    for (lidx_t i = 0; i < 29; ++i) {
      for (int c = 0; c < 3; ++c) {
        const std::size_t off = lay.offset(i, c);
        EXPECT_LT(off, lay.alloc_doubles());
        EXPECT_TRUE(seen.insert(off).second)
            << "collision at (" << i << "," << c << ") under "
            << mesh::layout_name(kind);
      }
    }
  }
}

TEST(DatLayout, RoundTripTranspose) {
  for (const LayoutKind kind :
       {LayoutKind::AoS, LayoutKind::SoA, LayoutKind::AoSoA}) {
    for (const lidx_t elems : {0, 1, 7, 8, 64, 129}) {
      const DatLayout lay = DatLayout::make(kind, 4, elems, 8);
      const std::vector<double> rows = random_rows(elems, 4, 11);
      std::vector<double> store(lay.alloc_doubles(), -1.0);
      mesh::to_layout(rows.data(), lay, store.data());
      std::vector<double> back(rows.size(), 0.0);
      mesh::from_layout(store.data(), lay, back.data());
      EXPECT_EQ(rows, back) << mesh::layout_name(kind) << " " << elems;
    }
  }
}

TEST(DatLayout, PaddingIsZeroFilled) {
  const DatLayout lay = DatLayout::make(LayoutKind::AoSoA, 2, 13, 8);
  const std::vector<double> rows = random_rows(13, 2, 12);
  std::vector<double> store(lay.alloc_doubles(), -7.0);
  mesh::to_layout(rows.data(), lay, store.data());
  // Everything not addressed by a valid (i, c) must be exactly zero.
  std::set<std::size_t> valid;
  for (lidx_t i = 0; i < 13; ++i)
    for (int c = 0; c < 2; ++c) valid.insert(lay.offset(i, c));
  for (std::size_t off = 0; off < store.size(); ++off) {
    if (valid.count(off) == 0) {
      EXPECT_EQ(store[off], 0.0) << off;
    }
  }
}

TEST(DatLayout, NonPowerOfTwoBlockRaises) {
  EXPECT_THROW(DatLayout::make(LayoutKind::AoSoA, 2, 16, 6), Error);
  EXPECT_THROW(DatLayout::make(LayoutKind::AoSoA, 2, 16, 0), Error);
}

TEST(DatLayout, NamesRoundTrip) {
  for (const LayoutKind kind :
       {LayoutKind::AoS, LayoutKind::SoA, LayoutKind::AoSoA})
    EXPECT_EQ(mesh::layout_by_name(mesh::layout_name(kind)), kind);
  EXPECT_THROW(mesh::layout_by_name("rows"), Error);
}

TEST(LayoutConfig, ResolvePrecedence) {
  mesh::LayoutConfig cfg;
  EXPECT_FALSE(cfg.enabled());  // default config is pure AoS
  cfg.kind = LayoutKind::SoA;
  cfg.per_set["nodes"] = LayoutKind::AoSoA;
  cfg.per_dat["d3"] = LayoutKind::AoS;
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.resolve("nodes", "d3"), LayoutKind::AoS);   // per-dat wins
  EXPECT_EQ(cfg.resolve("nodes", "q"), LayoutKind::AoSoA);  // per-set next
  EXPECT_EQ(cfg.resolve("cells", "q"), LayoutKind::SoA);    // then default
}

// -- Layout-aware halo pack. --------------------------------------------

TEST(GatherRegion, NullAndAosDescriptorsMatchLegacyRows) {
  const lidx_t elems = 40;
  const int dim = 3;
  const DatLayout aos = DatLayout::make(LayoutKind::AoS, dim, elems, 8);
  const std::vector<double> rows = random_rows(elems, dim, 21);
  const LIdxVec idx = {3, 17, 0, 39, 8, 8};

  ByteBuf legacy;
  halo::pack_rows(rows.data(), dim, idx, &legacy);
  ByteBuf with_null(legacy.size()), with_aos(legacy.size());
  halo::gather_region(rows.data(), nullptr, dim, idx, with_null.data());
  halo::gather_region(rows.data(), &aos, dim, idx, with_aos.data());
  EXPECT_EQ(legacy, with_null);
  EXPECT_EQ(legacy, with_aos);
}

TEST(GatherRegion, UnpackInvertsGatherUnderEveryLayout) {
  const lidx_t elems = 53;
  const int dim = 4;
  const LIdxVec idx = {0, 52, 13, 27, 5, 40, 41};
  for (const LayoutKind kind :
       {LayoutKind::AoS, LayoutKind::SoA, LayoutKind::AoSoA}) {
    const DatLayout lay = DatLayout::make(kind, dim, elems, 8);
    const std::vector<double> rows = random_rows(elems, dim, 31);
    std::vector<double> store(lay.alloc_doubles());
    mesh::to_layout(rows.data(), lay, store.data());

    ByteBuf wire(idx.size() * static_cast<std::size_t>(dim) *
                 sizeof(double));
    halo::gather_region(store.data(), &lay, dim, idx, wire.data());

    std::vector<double> dest(lay.alloc_doubles(), 0.0);
    const std::size_t used =
        halo::unpack_region(dest.data(), &lay, dim, idx, wire, 0);
    EXPECT_EQ(used, wire.size());
    for (const lidx_t i : idx)
      for (int c = 0; c < dim; ++c)
        EXPECT_EQ(dest[lay.offset(i, c)], store[lay.offset(i, c)])
            << mesh::layout_name(kind) << " (" << i << "," << c << ")";
  }
}

TEST(GroupedPack, ReferenceMatchesPlanUnderEveryLayout) {
  // The CA executor packs through the flattened GroupedPlan while the
  // reference walk drives the same wire format from the neighbour
  // lists; both must agree byte-for-byte under every layout (under AoS
  // this is also the legacy wire, proven by the null-descriptor case of
  // the gather test above).
  mesh::Quad2D q = mesh::make_quad2d(32, 32);
  const partition::Partition part =
      partition::partition_mesh(q.mesh, 4, partition::Kind::RIB, q.nodes);
  halo::HaloPlanOptions opts;
  opts.depth = 2;
  const halo::HaloPlan plan = build_halo_plan(q.mesh, part, opts);
  const halo::RankPlan& rp = plan.ranks[0];
  const halo::SetLayout& nl = plan.layout(0, q.nodes);
  const halo::SetLayout& cl = plan.layout(0, q.cells);

  for (const LayoutKind kind :
       {LayoutKind::AoS, LayoutKind::SoA, LayoutKind::AoSoA}) {
    const DatLayout nlay = DatLayout::make(kind, 5, nl.total, 8);
    const DatLayout clay = DatLayout::make(kind, 2, cl.total, 8);
    const std::vector<double> nrows = random_rows(nl.total, 5, 41);
    const std::vector<double> crows = random_rows(cl.total, 2, 42);
    std::vector<double> nstore(nlay.alloc_doubles());
    std::vector<double> cstore(clay.alloc_doubles());
    mesh::to_layout(nrows.data(), nlay, nstore.data());
    mesh::to_layout(crows.data(), clay, cstore.data());
    std::vector<halo::DatSyncSpec> specs = {
        {q.nodes, 5, 2, nstore.data(), &nlay},
        {q.cells, 2, 1, cstore.data(), &clay}};
    const halo::GroupedPlan gp = halo::build_grouped_plan(rp, specs);
    for (const halo::GroupedPlan::Side& side : gp.sides) {
      if (side.send_bytes == 0) continue;
      const ByteBuf reference = halo::pack_grouped(rp, side.q, specs);
      ByteBuf planned(side.send_bytes);
      halo::pack_grouped(side, specs, planned.data());
      EXPECT_EQ(reference, planned)
          << mesh::layout_name(kind) << " -> rank " << side.q;
    }
  }
}

// -- Rank<->global boundary. --------------------------------------------

core::WorldConfig layout_world_cfg(LayoutKind kind, int block = 8) {
  core::WorldConfig cfg;
  cfg.nranks = 3;
  cfg.halo_depth = 2;
  cfg.validate = true;
  cfg.layout.kind = kind;
  cfg.layout.aosoa_block = block;
  return cfg;
}

TEST(WorldLayout, FetchDatRoundTripsAcrossLayouts) {
  // Build a world, run nothing: fetch_dat must reproduce the global
  // arrays exactly through gather_local -> scatter_owned, whatever the
  // rank storage layout (17^3 nodes: rank-local counts are not block
  // multiples, so tail blocks are exercised).
  mesh::Hex3D h = mesh::make_hex3d(17, 17, 17);
  const gidx_t n = h.mesh.set(h.nodes).size;
  std::vector<double> init(static_cast<std::size_t>(n) * 3);
  Rng rng(51);
  for (auto& v : init) v = rng.next_range(-1.0, 1.0);
  const mesh::dat_id d3 = h.mesh.add_dat("d3", h.nodes, 3, init);

  for (const LayoutKind kind :
       {LayoutKind::AoS, LayoutKind::SoA, LayoutKind::AoSoA}) {
    core::World w(h.mesh, layout_world_cfg(kind));
    w.run([](core::Runtime&) {});
    EXPECT_EQ(w.fetch_dat(d3), init) << mesh::layout_name(kind);
  }
}

TEST(WorldLayout, RankStorageAlignedAndDescribed) {
  mesh::Hex3D h = mesh::make_hex3d(9, 9, 9);
  h.mesh.add_dat("d2", h.nodes, 2);

  for (const LayoutKind kind :
       {LayoutKind::AoS, LayoutKind::SoA, LayoutKind::AoSoA}) {
    core::World w(h.mesh, layout_world_cfg(kind, 4));
    w.run([&](core::Runtime& rt) {
      const core::Dat d = rt.dat("d2");
      const mesh::DatLayout& lay = rt.dat_layout(d);
      EXPECT_EQ(lay.kind, kind);
      EXPECT_EQ(lay.dim, 2);
      EXPECT_EQ(lay.elems, rt.layout(rt.set("nodes")).total);
      EXPECT_TRUE(util::cache_aligned(rt.dat_data(d)));
    });
  }
}

}  // namespace
}  // namespace op2ca
