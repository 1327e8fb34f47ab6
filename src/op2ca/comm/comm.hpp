// Per-rank communicator over a pluggable TransportBackend, with
// non-blocking send/recv requests and communication statistics. Mirrors
// the MPI calls used in Alg 1 / Alg 2 of the paper (MPI_Isend, MPI_Irecv,
// MPI_Wait): every halo message is one isend matched by one irecv.
#pragma once

#include <cstddef>
#include <set>
#include <span>
#include <vector>

#include "op2ca/comm/transport.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::sim {

/// Per-rank send counters of the current epoch: `reset_epoch()` zeroes
/// them, so the epoch executor meters one loop or one chain at a time.
struct CommStats {
  std::int64_t epoch_msgs_sent = 0;
  std::int64_t epoch_bytes_sent = 0;
  std::int64_t epoch_max_msg_bytes = 0;
  std::set<rank_t> epoch_neighbors;

  void reset_epoch();
};

/// Handle for a pending non-blocking operation.
class Request {
public:
  Request() = default;

  bool valid() const { return kind_ != Kind::None; }

private:
  friend class Comm;
  enum class Kind { None, Send, Recv };
  Kind kind_ = Kind::None;
  rank_t peer = -1;
  tag_t tag = 0;
  ByteBuf* recv_buffer = nullptr;  // Recv only.
};

/// One simulated process's communication endpoint. A Comm belongs to
/// its rank thread: every send, receive, wait and collective is called
/// from that thread, never from the rank's pool workers.
class Comm {
public:
  Comm(TransportBackend& transport, rank_t rank);

  rank_t rank() const { return rank_; }
  int size() const { return transport_->size(); }

  /// Begins a non-blocking send; the payload is copied before returning.
  /// Prefer the by-value overload on hot paths.
  Request isend(rank_t dst, tag_t tag, std::span<const std::byte> payload);
  /// Zero-copy send: takes ownership of the buffer and moves it into the
  /// destination mailbox — no payload copy. The caller's vector is left
  /// empty; staging buffers come back through a BufferPool on the
  /// receiving side (see util/buffer_pool.hpp).
  Request isend(rank_t dst, tag_t tag, ByteBuf payload);
  /// Begins a non-blocking receive into `*out` (resized on completion).
  Request irecv(rank_t src, tag_t tag, ByteBuf* out);

  void wait(Request& req);
  void wait_all(std::span<Request> reqs);

  void barrier();

  /// Collectives (implemented over point-to-point; see collectives.cpp).
  /// Sum of one value across ranks, accumulated in rank order: the
  /// epoch executor reduces arg_gbl INC results through this.
  double allreduce_sum(double value);
  /// Element-wise vector sum across ranks (deterministic rank-order
  /// accumulation on the root). All ranks must pass the same size.
  /// World::fetch_dat uses this in SPMD mode to combine per-rank owned
  /// scatters into the full global array on every process.
  std::vector<double> allreduce_sum(std::vector<double> values);
  /// Gathers one variable-size byte blob per rank onto every rank, in
  /// rank order. SPMD-mode metrics reduction serialises each process's
  /// LoopMetrics maps through this so rank 0 (and everyone else) can
  /// merge them exactly as the threaded World does.
  std::vector<ByteBuf> allgather_bytes(const ByteBuf& blob);

  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

private:
  Request post_send(rank_t dst, tag_t tag, Message msg);
  /// Stats for one wire message to `dst`.
  void record_send(rank_t dst, std::size_t bytes);
  /// Raises unless `peer` is another rank of this communicator.
  void check_peer(const char* op, rank_t peer) const;

  TransportBackend* transport_;
  rank_t rank_;
  CommStats stats_;
};

}  // namespace op2ca::sim
