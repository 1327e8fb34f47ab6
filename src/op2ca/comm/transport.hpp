// Pluggable message transport behind the per-rank Comm endpoints.
//
// TransportBackend is the contract every exchange path (per-loop, grouped
// chain, collectives) talks to: point-to-point tagged messages with
// non-overtaking order per (src, dst, tag), blocking and non-blocking
// matching, a barrier, and poison for failure unwinding. Two
// implementations exist:
//
//  - sim::Transport (this file): the in-process fabric standing in for
//    MPI. Ranks are threads; mailboxes are mutex+condvar protected
//    queues. Payloads are moved into the destination mailbox on post:
//    the zero-copy isend overload transfers ownership of the sender's
//    staging buffer (the span overload still copies for small
//    collectives). Ownership handover happens under the mailbox mutex,
//    so the receiver may recycle the buffer freely after wait() — see
//    util/buffer_pool.hpp for the staging-buffer lifecycle. Carries a
//    per-destination post delay for contention tests and benches.
//
//  - sim::MpiBackend (mpi_backend.hpp): the same contract over real MPI
//    when built with -DOP2CA_MPI=ON and an MPI toolchain; a compile-only
//    stub that routes the identical tag encoding over an in-process
//    fabric when MPI is absent.
//
// make_backend() picks the implementation from a TransportConfig.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "op2ca/util/aligned.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::sim {

/// Message tag. User tags are >= 0; negative tags are reserved for
/// internal collectives.
using tag_t = std::int32_t;

/// A delivered message (payload ownership transferred from the sender).
struct Message {
  rank_t src = -1;
  rank_t dst = -1;
  tag_t tag = 0;
  ByteBuf payload;
};

/// Which TransportBackend implementation a World runs on.
enum class BackendKind { Sim, Mpi };

const char* backend_name(BackendKind k);
BackendKind backend_by_name(const std::string& name);

/// Transport configuration carried by WorldConfig: the backend a World
/// runs on.
struct TransportConfig {
  BackendKind backend = BackendKind::Sim;
};

/// Abstract transport fabric shared by `nranks` SPMD endpoints.
class TransportBackend {
public:
  virtual ~TransportBackend() = default;

  virtual const char* name() const = 0;
  virtual int size() const = 0;

  /// Enqueues a message for the destination (non-blocking).
  virtual void post(Message msg) = 0;

  /// Blocks until a message from `src` with `tag` is available for `dst`
  /// and removes it. FIFO per (src, tag). Throws when poisoned.
  virtual Message match(rank_t dst, rank_t src, tag_t tag) = 0;

  /// Non-blocking probe-and-take; returns false if nothing matches yet.
  virtual bool try_match(rank_t dst, rank_t src, tag_t tag,
                         Message* out) = 0;

  /// Synchronises all ranks.
  virtual void barrier() = 0;

  /// Number of messages currently queued (test aid).
  virtual std::size_t in_flight() const = 0;

  /// Marks the fabric as failed: every blocked or future match/barrier
  /// throws instead of waiting forever. Called when a rank errors so the
  /// remaining SPMD threads unwind instead of deadlocking.
  virtual void poison() = 0;
  virtual bool poisoned() const = 0;
};

/// Constructs the backend `cfg` selects. The Mpi kind returns the real
/// MPI backend when compiled in, the in-process stub otherwise.
std::unique_ptr<TransportBackend> make_backend(const TransportConfig& cfg,
                                               int nranks);

/// In-process mailbox fabric for `nranks` simulated processes.
class Transport : public TransportBackend {
public:
  explicit Transport(int nranks);

  const char* name() const override { return "sim"; }
  int size() const override { return nranks_; }

  void post(Message msg) override;
  Message match(rank_t dst, rank_t src, tag_t tag) override;
  bool try_match(rank_t dst, rank_t src, tag_t tag, Message* out) override;

  /// Dissemination-free centralised barrier over all ranks.
  void barrier() override;

  std::size_t in_flight() const override;

  void poison() override;
  bool poisoned() const override { return poisoned_.load(); }

  /// Delays every post TO `dst` by `seconds` inside the destination's
  /// serialisation scope. Lets the contention regression test observe
  /// that sends to other destinations do not queue behind it.
  void set_post_delay(rank_t dst, double seconds);

private:
  struct Mailbox {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
  };

  bool take_locked(Mailbox& box, rank_t src, tag_t tag, Message* out);
  /// Sleeps for the post delay configured for `dst`, if any.
  void delay_post(rank_t dst);

  int nranks_;
  std::atomic<bool> poisoned_{false};
  std::vector<Mailbox> boxes_;

  std::mutex delay_mu_;
  std::vector<double> post_delay_s_;  ///< per-destination, empty = none.

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
};

}  // namespace op2ca::sim
