// Per-rank communicator over a pluggable TransportBackend, with
// non-blocking send/recv requests, communication statistics, and a
// virtual clock fed by a pluggable cost model. Mirrors the MPI calls used
// in Alg 1 / Alg 2 of the paper (MPI_Isend, MPI_Irecv, MPI_Wait,
// MPI_Send_init-style persistent channels).
//
// On top of the plain point-to-point API, Comm implements the
// topology-aware transport layer:
//  - stripe_isend/stripe_irecv split messages >= stripe_min_bytes into up
//    to `rails` sub-messages (channel.hpp wire format) and reassemble
//    them out-of-order into one pooled buffer on the receiver;
//  - open_channels pre-negotiates fixed (peer, tag, size) slots once per
//    cached exchange plan; channel_isend/channel_irecv then move
//    headerless stripes through those slots each epoch.
// With rails == 1 and persistent channels off, every call degenerates to
// the legacy single-message path, bitwise-identical to earlier builds.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "op2ca/comm/channel.hpp"
#include "op2ca/comm/cost_model.hpp"
#include "op2ca/comm/transport.hpp"
#include "op2ca/util/buffer_pool.hpp"
#include "op2ca/util/timer.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::sim {

/// Per-rank communication counters. `epoch_*` fields reset via
/// `reset_epoch()` so a bench can meter one loop or one chain at a time.
struct CommStats {
  std::int64_t msgs_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t msgs_received = 0;
  std::int64_t bytes_received = 0;
  /// Sends whose payload was moved into the mailbox (zero-copy path) vs
  /// copied from a caller-owned span.
  std::int64_t sends_moved = 0;
  std::int64_t sends_copied = 0;
  /// Wire messages sent per machine tier (indexed by Tier).
  std::int64_t msgs_by_tier[kNumTiers] = {0, 0, 0};
  std::int64_t bytes_by_tier[kNumTiers] = {0, 0, 0};
  /// Stripe sub-messages sent (each also counts in msgs_sent).
  std::int64_t stripes_sent = 0;
  /// Persistent channels negotiated / messages sent through them.
  std::int64_t channels_opened = 0;
  std::int64_t channel_sends = 0;
  std::set<rank_t> send_neighbors;
  std::set<rank_t> recv_neighbors;

  std::int64_t epoch_msgs_sent = 0;
  std::int64_t epoch_bytes_sent = 0;
  std::int64_t epoch_msgs_received = 0;
  std::int64_t epoch_bytes_received = 0;
  std::int64_t epoch_max_msg_bytes = 0;
  std::int64_t epoch_msgs_by_tier[kNumTiers] = {0, 0, 0};
  std::int64_t epoch_bytes_by_tier[kNumTiers] = {0, 0, 0};
  std::int64_t epoch_stripes = 0;
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
  enum class Kind { None, Send, Recv, StripedRecv, ChannelRecv };
  Kind kind_ = Kind::None;
  rank_t peer = -1;
  tag_t tag = 0;
  ByteBuf* recv_buffer = nullptr;      // receive kinds only.
  std::size_t sent_bytes = 0;          // Send only.
  std::size_t expect_bytes = 0;        // StripedRecv only.
  const Channel* channel = nullptr;    // ChannelRecv only.
};

/// One simulated process's communication endpoint.
///
/// A Comm belongs to exactly one rank thread, with one exception: isend /
/// stripe_isend / channel_isend are safe to call concurrently from that
/// rank's pool workers. Sends serialise per DESTINATION — one mutex per
/// peer — so concurrent posts aimed at different neighbours proceed
/// without contending, while per-(src,dst,tag) FIFO
/// order is preserved; a separate mutex guards the statistics. Receives,
/// waits, channel negotiation and collectives remain rank-thread-only.
class Comm {
public:
  Comm(TransportBackend& transport, rank_t rank,
       const CostModel* cost = nullptr,
       const TransportConfig* tcfg = nullptr);

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

  /// isend that stripes payloads >= stripe_min_bytes across the
  /// configured rails (header-framed sub-messages on the caller's tag).
  /// Below the threshold, or with rails == 1, this IS isend.
  Request stripe_isend(rank_t dst, tag_t tag, ByteBuf payload);
  /// Matching receive: `expect_bytes` must equal the sender's payload
  /// size (halo plans know both sides), so both ends derive the same
  /// stripe/no-stripe decision and stripe boundaries.
  Request stripe_irecv(rank_t src, tag_t tag, ByteBuf* out,
                       std::size_t expect_bytes);

  /// Negotiates persistent channels for all `specs` with the peers
  /// (two-phase: announce everything, then confirm everything — safe for
  /// any SPMD-symmetric open order, no cross-rank deadlock). A geometry
  /// or plan-hash mismatch between the two ends raises (stale channel).
  /// Rank-thread-only; called once per cached exchange plan.
  std::vector<Channel> open_channels(std::span<const ChannelSpec> specs);
  /// Posts `payload` (exactly ch.bytes) through a negotiated channel:
  /// headerless stripes on the channel's pre-assigned rail tags.
  Request channel_isend(const Channel& ch, ByteBuf payload);
  /// Matching receive through the peer's slot.
  Request channel_irecv(const Channel& ch, ByteBuf* out);

  void wait(Request& req);
  void wait_all(std::span<Request> reqs);

  void barrier();

  /// Collectives (implemented over point-to-point; see collectives.cpp).
  double allreduce_sum(double value);
  double allreduce_max(double value);
  std::int64_t allreduce_sum(std::int64_t value);
  std::int64_t allreduce_max(std::int64_t value);
  /// Gathers one value from each rank, in rank order, on every rank.
  std::vector<double> allgather(double value);
  std::vector<std::int64_t> allgather(std::int64_t value);
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

  /// Virtual (modeled) time accumulated by the cost model, if one is set.
  VirtualClock& clock() { return clock_; }
  const CostModel* cost_model() const { return cost_; }
  const TransportConfig& transport_config() const { return tcfg_; }

  /// True when `bytes` would stripe under the current config. Receivers
  /// and senders must agree, so the rule is a pure function of size.
  bool should_stripe(std::size_t bytes) const {
    return tcfg_.rails > 1 && bytes >= tcfg_.stripe_min_bytes;
  }

private:
  friend class Collectives;
  Request post_send(rank_t dst, tag_t tag, Message msg);
  /// Stats + tier accounting for one wire message to `dst`.
  void record_send(rank_t dst, std::size_t bytes);
  void record_recv(rank_t src, std::size_t bytes);
  Tier tier_to(rank_t peer) const {
    return cost_ != nullptr ? cost_->tier_of(rank_, peer) : Tier::Net;
  }
  void charge(double seconds) {
    if (cost_ != nullptr) clock_.advance(seconds);
  }
  ByteBuf take_stripe_buf(std::size_t bytes);
  void release_stripe_buf(ByteBuf buf);
  /// match_for with the configured reassembly deadline; raises `what`
  /// context on timeout instead of returning false.
  Message match_or_raise(rank_t src, tag_t tag, const char* what);

  void complete_recv(Request& req);
  void complete_striped_recv(Request& req);
  void complete_channel_recv(Request& req);

  TransportBackend* transport_;
  rank_t rank_;
  const CostModel* cost_;
  TransportConfig tcfg_;  ///< copied; defaults when none supplied.
  CommStats stats_;
  VirtualClock clock_;

  /// Per-destination send serialisation (see class doc).
  std::unique_ptr<std::mutex[]> dest_mu_;
  std::mutex stats_mu_;

  /// Staging for stripe assembly/disassembly, recycled across epochs.
  /// Guarded: pack workers striping concurrently share it.
  std::mutex stripe_mu_;
  BufferPool stripe_pool_;

  /// Next channel id per ordered pair: index by peer, split by direction.
  std::vector<std::int32_t> next_send_channel_;
  std::vector<std::int32_t> next_recv_channel_;
};

}  // namespace op2ca::sim
