// Collectives implemented over the point-to-point transport with reserved
// negative tags. SPMD call discipline (all ranks call in the same order)
// plus per-(src,tag) FIFO matching make a fixed tag per collective safe.
#include <algorithm>
#include <cstring>

#include "op2ca/comm/comm.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::sim {
namespace {

constexpr tag_t kTagReduceUp = -1;
constexpr tag_t kTagBcastDown = -2;
constexpr tag_t kTagGather = -3;

}  // namespace

double Comm::allreduce_sum(double value) {
  return allreduce_sum(std::vector<double>{value})[0];
}

std::vector<double> Comm::allreduce_sum(std::vector<double> values) {
  const int nranks = size();
  if (nranks == 1) return values;
  if (rank() == 0) {
    // Fixed rank order keeps the element-wise sums deterministic.
    for (rank_t src = 1; src < nranks; ++src) {
      ByteBuf buf;
      Request r = irecv(src, kTagReduceUp, &buf);
      wait(r);
      OP2CA_REQUIRE(buf.size() == values.size() * sizeof(double),
                    "allreduce_sum(vector): rank " + std::to_string(src) +
                        " contributed a different element count");
      const double* theirs = reinterpret_cast<const double*>(buf.data());
      for (std::size_t i = 0; i < values.size(); ++i) values[i] += theirs[i];
    }
    std::span<const std::byte> blob{
        reinterpret_cast<const std::byte*>(values.data()),
        values.size() * sizeof(double)};
    for (rank_t dst = 1; dst < nranks; ++dst) {
      Request r = isend(dst, kTagBcastDown, blob);
      wait(r);
    }
    return values;
  }
  Request s = isend(0, kTagReduceUp,
                    std::span<const std::byte>{
                        reinterpret_cast<const std::byte*>(values.data()),
                        values.size() * sizeof(double)});
  wait(s);
  ByteBuf buf;
  Request r = irecv(0, kTagBcastDown, &buf);
  wait(r);
  OP2CA_ASSERT(buf.size() == values.size() * sizeof(double),
               "allreduce_sum(vector) payload size mismatch");
  std::memcpy(values.data(), buf.data(), buf.size());
  return values;
}

std::vector<ByteBuf> Comm::allgather_bytes(const ByteBuf& blob) {
  const int nranks = size();
  std::vector<ByteBuf> all(static_cast<std::size_t>(nranks));
  all[static_cast<std::size_t>(rank())] = blob;
  if (nranks == 1) return all;
  if (rank() == 0) {
    for (rank_t src = 1; src < nranks; ++src) {
      ByteBuf buf;
      Request r = irecv(src, kTagGather, &buf);
      wait(r);
      all[static_cast<std::size_t>(src)] = std::move(buf);
    }
    // Length-prefixed concatenation, broadcast to everyone: blobs are
    // variable-size, so the framing travels with the payload.
    std::size_t total = sizeof(std::uint64_t) * static_cast<std::size_t>(nranks);
    for (const ByteBuf& b : all) total += b.size();
    ByteBuf packed(total);
    std::size_t off = 0;
    for (const ByteBuf& b : all) {
      const std::uint64_t len = b.size();
      std::memcpy(packed.data() + off, &len, sizeof(len));
      off += sizeof(len);
      // copy_n, not memcpy: an empty blob's data() may be null.
      std::copy_n(b.data(), b.size(), packed.data() + off);
      off += b.size();
    }
    for (rank_t dst = 1; dst < nranks; ++dst) {
      Request r = isend(dst, kTagBcastDown,
                        std::span<const std::byte>{packed.data(),
                                                   packed.size()});
      wait(r);
    }
    return all;
  }
  Request s = isend(0, kTagGather,
                    std::span<const std::byte>{blob.data(), blob.size()});
  wait(s);
  ByteBuf packed;
  Request r = irecv(0, kTagBcastDown, &packed);
  wait(r);
  std::size_t off = 0;
  for (rank_t src = 0; src < nranks; ++src) {
    OP2CA_ASSERT(off + sizeof(std::uint64_t) <= packed.size(),
                 "allgather_bytes framing truncated");
    std::uint64_t len = 0;
    std::memcpy(&len, packed.data() + off, sizeof(len));
    off += sizeof(len);
    OP2CA_ASSERT(off + len <= packed.size(),
                 "allgather_bytes blob truncated");
    ByteBuf& out = all[static_cast<std::size_t>(src)];
    out.resize(static_cast<std::size_t>(len));
    std::copy_n(packed.data() + off, out.size(), out.data());
    off += len;
  }
  return all;
}

}  // namespace op2ca::sim
