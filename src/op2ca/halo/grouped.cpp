#include "op2ca/halo/grouped.hpp"

#include <cstring>

#include "op2ca/util/error.hpp"

namespace op2ca::halo {
namespace {

/// Looks up the per-layer list vector for (set, neighbour) or nullptr.
const std::vector<LIdxVec>* find_lists(
    const std::map<rank_t, std::vector<LIdxVec>>& table, rank_t q) {
  const auto it = table.find(q);
  return it == table.end() ? nullptr : &it->second;
}

/// Halo classes a segment walk covers (bit mask).
constexpr unsigned kExec = 1, kNonexec = 2, kBothClasses = kExec | kNonexec;

/// Iterates the (dat, class, layer) sequence of a grouped message in the
/// canonical order shared by sender and receiver.
template <typename Fn>
void for_each_segment(const RankPlan& rp, rank_t q,
                      std::span<const DatSyncSpec> specs, bool exports,
                      Fn&& fn, unsigned classes = kBothClasses) {
  for (const DatSyncSpec& spec : specs) {
    const NeighborLists& nl =
        rp.lists[static_cast<std::size_t>(spec.set)];
    const std::vector<LIdxVec>* exec =
        find_lists(exports ? nl.exp_exec : nl.imp_exec, q);
    const std::vector<LIdxVec>* nonexec =
        find_lists(exports ? nl.exp_nonexec : nl.imp_nonexec, q);
    if ((classes & kExec) == 0) exec = nullptr;
    if ((classes & kNonexec) == 0) nonexec = nullptr;
    for (int k = 1; k <= spec.depth; ++k) {
      if (exec != nullptr &&
          k <= static_cast<int>(exec->size()))
        fn(spec, (*exec)[static_cast<std::size_t>(k - 1)]);
    }
    for (int k = 1; k <= spec.depth; ++k) {
      if (nonexec != nullptr && k <= static_cast<int>(nonexec->size()))
        fn(spec, (*nonexec)[static_cast<std::size_t>(k - 1)]);
    }
  }
}

}  // namespace

void gather_rows(const double* data, int dim, const LIdxVec& idx,
                 std::byte* out) {
  const std::size_t row_bytes = static_cast<std::size_t>(dim) * sizeof(double);
  for (lidx_t i : idx) {
    std::memcpy(out, data + static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(dim),
                row_bytes);
    out += row_bytes;
  }
}

void pack_rows(const double* data, int dim, const LIdxVec& idx,
               ByteBuf* out) {
  const std::size_t row_bytes = static_cast<std::size_t>(dim) * sizeof(double);
  const std::size_t base = out->size();
  out->resize(base + idx.size() * row_bytes);
  gather_rows(data, dim, idx, out->data() + base);
}

std::size_t unpack_rows(double* data, int dim, const LIdxVec& idx,
                        std::span<const std::byte> in, std::size_t offset) {
  const std::size_t row_bytes = static_cast<std::size_t>(dim) * sizeof(double);
  OP2CA_REQUIRE(offset + idx.size() * row_bytes <= in.size(),
                "unpack_rows: payload too short");
  const std::byte* src = in.data() + offset;
  for (lidx_t i : idx) {
    std::memcpy(data + static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(dim),
                src, row_bytes);
    src += row_bytes;
  }
  return offset + idx.size() * row_bytes;
}

std::map<rank_t, std::int64_t> grouped_message_bytes(
    const RankPlan& rp, std::span<const DatSyncSpec> specs) {
  std::map<rank_t, std::int64_t> bytes;
  for (rank_t q : rp.neighbors) {
    std::int64_t total = 0;
    for_each_segment(rp, q, specs, /*exports=*/true,
                     [&](const DatSyncSpec& spec, const LIdxVec& idx) {
                       total += static_cast<std::int64_t>(idx.size()) *
                                spec.dim *
                                static_cast<std::int64_t>(sizeof(double));
                     });
    if (total > 0) bytes[q] = total;
  }
  return bytes;
}

ByteBuf pack_grouped(const RankPlan& rp, rank_t q,
                     std::span<const DatSyncSpec> specs) {
  ByteBuf out;
  for_each_segment(rp, q, specs, /*exports=*/true,
                   [&](const DatSyncSpec& spec, const LIdxVec& idx) {
                     pack_rows(spec.data, spec.dim, idx, &out);
                   });
  return out;
}

void unpack_grouped(const RankPlan& rp, rank_t q,
                    std::span<const DatSyncSpec> specs,
                    std::span<const std::byte> payload) {
  std::size_t offset = 0;
  for_each_segment(rp, q, specs, /*exports=*/false,
                   [&](const DatSyncSpec& spec, const LIdxVec& idx) {
                     offset = unpack_rows(spec.data, spec.dim, idx, payload,
                                          offset);
                   });
  OP2CA_REQUIRE(offset == payload.size(),
                "unpack_grouped: payload size mismatch");
}

GroupedPlan build_grouped_plan(const RankPlan& rp,
                               std::span<const DatSyncSpec> specs,
                               Grouping grouping, sim::tag_t tag) {
  GroupedPlan plan;
  // Adds the side toward / from q that carries `classes` of specs [b, e).
  const auto add_side = [&](rank_t q, sim::tag_t side_tag, std::size_t b,
                            std::size_t e, unsigned classes) {
    GroupedPlan::Side side;
    side.q = q;
    side.tag = side_tag;
    for (std::size_t s = b; s < e; ++s) {
      const std::size_t row =
          static_cast<std::size_t>(specs[s].dim) * sizeof(double);
      for (const bool exports : {true, false}) {
        auto& segs = exports ? side.gather : side.scatter;
        std::size_t& bytes = exports ? side.send_bytes : side.recv_bytes;
        for_each_segment(rp, q, specs.subspan(s, 1), exports,
                         [&](const DatSyncSpec&, const LIdxVec& idx) {
                           if (idx.empty()) return;
                           segs.push_back({s, &idx});
                           bytes += idx.size() * row;
                         }, classes);
      }
    }
    if (side.send_bytes > 0 || side.recv_bytes > 0)
      plan.sides.push_back(std::move(side));
  };
  for (rank_t q : rp.neighbors) {
    if (grouping == Grouping::PerNeighbour) {
      add_side(q, tag, 0, specs.size(), kBothClasses);
      continue;
    }
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const sim::tag_t exec_tag = tag + 2 * static_cast<sim::tag_t>(s);
      add_side(q, exec_tag, s, s + 1, kExec);
      add_side(q, exec_tag + 1, s, s + 1, kNonexec);
    }
  }
  return plan;
}

void pack_grouped(const GroupedPlan::Side& side,
                  std::span<const DatSyncSpec> specs, std::byte* out) {
  for (const GroupedPlan::Segment& seg : side.gather) {
    const DatSyncSpec& spec = specs[seg.spec];
    gather_rows(spec.data, spec.dim, *seg.rows, out);
    out += seg.rows->size() * static_cast<std::size_t>(spec.dim) *
           sizeof(double);
  }
}

void unpack_grouped(const GroupedPlan::Side& side,
                    std::span<const DatSyncSpec> specs,
                    std::span<const std::byte> payload) {
  OP2CA_REQUIRE(payload.size() == side.recv_bytes,
                "unpack_grouped: payload does not match the plan");
  std::size_t offset = 0;
  for (const GroupedPlan::Segment& seg : side.scatter) {
    const DatSyncSpec& spec = specs[seg.spec];
    offset = unpack_rows(spec.data, spec.dim, *seg.rows, payload, offset);
  }
}

}  // namespace op2ca::halo
