// Per-rank communicator over a pluggable TransportBackend, with
// non-blocking send/recv requests and communication statistics. Mirrors
// the MPI calls used in Alg 1 / Alg 2 of the paper (MPI_Isend, MPI_Irecv,
// MPI_Wait): every halo message is one isend matched by one irecv.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "op2ca/comm/transport.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::sim {

/// Per-rank communication counters. `epoch_*` fields reset via
/// `reset_epoch()` so a bench can meter one loop or one chain at a time.
struct CommStats {
  std::int64_t msgs_sent = 0;
  std::int64_t bytes_sent = 0;
  /// Sends whose payload was moved into the mailbox (zero-copy path) vs
  /// copied from a caller-owned span.
  std::int64_t sends_moved = 0;
  std::int64_t sends_copied = 0;
  std::set<rank_t> send_neighbors;

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

/// One simulated process's communication endpoint.
///
/// A Comm belongs to exactly one rank thread, with one exception: isend
/// is safe to call concurrently from that rank's pool workers. Sends
/// serialise per DESTINATION — one mutex per peer — so concurrent posts
/// aimed at different neighbours proceed without contending, while
/// per-(src,dst,tag) FIFO order is preserved; a separate mutex guards the
/// statistics. Receives, waits and collectives remain rank-thread-only.
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

  /// Per-destination send serialisation (see class doc).
  std::unique_ptr<std::mutex[]> dest_mu_;
  std::mutex stats_mu_;
};

}  // namespace op2ca::sim
