// Grouped halo message assembly (Fig 8 of the paper): for each neighbour,
// a single buffer concatenating, per dat, the export-exec layers 1..h_d
// followed by the export-nonexec layers 1..h_d. Sender and receiver
// iterate the same (dat, class, layer) sequence over symmetric lists, so
// offsets agree without any header.
//
// A GroupedPlan can also cut the same exchange per dat and halo class:
// the baseline per-loop exchange (one dat, one layer, exec and nonexec
// sent as two separate messages — the 2 d p m^1 term of Eq (1)).
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "op2ca/comm/transport.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/util/aligned.hpp"

namespace op2ca::halo {

/// One dat's participation in a grouped exchange.
struct DatSyncSpec {
  mesh::set_id set = -1;
  int dim = 0;
  int depth = 1;  ///< halo layers to sync (paper's per-dat h_l).
  /// Local data array of the dat on this rank: `dim`-double rows, which
  /// the wire carries element-major.
  double* data = nullptr;
};

/// Appends data[idx] rows to `out`.
void pack_rows(const double* data, int dim, const LIdxVec& idx,
               ByteBuf* out);

/// Copies data[idx] rows into `out` (idx.size() * dim doubles). The raw,
/// allocation-free primitive under pack_rows and the GroupedPlan pack.
void gather_rows(const double* data, int dim, const LIdxVec& idx,
                 std::byte* out);

/// Copies rows from `in` at `offset` into data[idx]; returns new offset.
std::size_t unpack_rows(double* data, int dim, const LIdxVec& idx,
                        std::span<const std::byte> in, std::size_t offset);

/// Total bytes of the grouped message to each neighbour (doubles only).
std::map<rank_t, std::int64_t> grouped_message_bytes(
    const RankPlan& rp, std::span<const DatSyncSpec> specs);

/// Builds the grouped export buffer toward neighbour `q`. Reference
/// implementation: walks the (dat, class, layer) segment sequence through
/// the per-neighbour list maps and allocates a fresh buffer. The
/// executors use a GroupedPlan instead; this stays as the ground truth
/// the plan is tested against and as the one-shot API for benches.
ByteBuf pack_grouped(const RankPlan& rp, rank_t q,
                                    std::span<const DatSyncSpec> specs);

/// Unpacks a received grouped buffer from neighbour `q` into the dats.
void unpack_grouped(const RankPlan& rp, rank_t q,
                    std::span<const DatSyncSpec> specs,
                    std::span<const std::byte> payload);

/// Cached grouped-exchange plan: the (dat, class, layer) segment walk
/// of a grouped message resolved, per neighbour, into the export and
/// import layer lists it visits, plus the total byte counts. Built once
/// at inspection time; steady-state epochs then pack/unpack with zero map
/// lookups and zero allocations.
///
/// The plan points into the RankPlan it was built from, which must
/// outlive it (the World owns both). It pins the (specs, neighbour lists)
/// geometry: rebuild whenever the participating dat set, sync depths or
/// dims change. DatSyncSpec::data pointers are NOT pinned — pack/unpack
/// take the current specs so callers can rebind data arrays cheaply.
struct GroupedPlan {
  /// One non-empty layer list of a message, carrying rows of specs[spec].
  struct Segment {
    std::size_t spec = 0;
    const LIdxVec* rows = nullptr;  ///< a RankPlan per-layer list.
  };
  /// One message each way between this rank and q, under one tag.
  struct Side {
    rank_t q = -1;
    sim::tag_t tag = 0;
    /// The export / import lists toward / from q in message order: per
    /// spec, exec layers 1..depth then nonexec layers 1..depth (the
    /// side's classes only).
    std::vector<Segment> gather;
    std::vector<Segment> scatter;
    std::size_t send_bytes = 0;
    std::size_t recv_bytes = 0;
  };
  /// Sides with traffic in either direction, neighbour by neighbour.
  std::vector<Side> sides;
};

/// How a plan cuts an exchange into messages.
enum class Grouping {
  /// One message per neighbour carrying every spec (Fig 8), tagged `tag`.
  PerNeighbour,
  /// One message per (spec, halo class, neighbour), the 2 d p m^1 term of
  /// Eq (1): spec s's exec layers travel under tag + 2s, its nonexec
  /// layers under tag + 2s + 1.
  PerDatClass,
};

/// Flattens the segment walk for every neighbour of `rp`, cut into
/// messages by `grouping`.
GroupedPlan build_grouped_plan(const RankPlan& rp,
                               std::span<const DatSyncSpec> specs,
                               Grouping grouping = Grouping::PerNeighbour,
                               sim::tag_t tag = 0);

/// Packs the grouped message toward side.q into `out`, which must hold
/// side.send_bytes. Allocation-free by construction.
void pack_grouped(const GroupedPlan::Side& side,
                  std::span<const DatSyncSpec> specs, std::byte* out);

/// Unpacks a received grouped payload (side.recv_bytes long) from side.q.
/// A row may appear in more than one of a side's layers (a promoted
/// element keeps an alias entry at its original nonexec layer), so the
/// scatter runs on one thread, in list order.
void unpack_grouped(const GroupedPlan::Side& side,
                    std::span<const DatSyncSpec> specs,
                    std::span<const std::byte> payload);

}  // namespace op2ca::halo
