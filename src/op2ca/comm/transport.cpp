#include "op2ca/comm/transport.hpp"

#include <chrono>
#include <thread>

#include "op2ca/comm/mpi_backend.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::sim {

const char* backend_name(BackendKind k) {
  return k == BackendKind::Mpi ? "mpi" : "sim";
}

BackendKind backend_by_name(const std::string& name) {
  if (name == "sim") return BackendKind::Sim;
  if (name == "mpi") return BackendKind::Mpi;
  raise("unknown transport backend: " + name + " (expected sim|mpi)");
}

std::unique_ptr<TransportBackend> make_backend(const TransportConfig& cfg,
                                               int nranks) {
  if (cfg.backend == BackendKind::Mpi)
    return std::make_unique<MpiBackend>(nranks);
  return std::make_unique<Transport>(nranks);
}

Transport::Transport(int nranks) : nranks_(nranks), boxes_(nranks) {
  OP2CA_REQUIRE(nranks > 0, "Transport requires at least one rank");
}

void Transport::delay_post(rank_t dst) {
  double delay = 0;
  {
    std::lock_guard<std::mutex> lock(delay_mu_);
    if (!post_delay_s_.empty())
      delay = post_delay_s_[static_cast<std::size_t>(dst)];
  }
  // Sleeping outside delay_mu_ lets other rank threads post meanwhile.
  if (delay > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

void Transport::post(Message msg) {
  OP2CA_REQUIRE(msg.dst >= 0 && msg.dst < nranks_,
                "Transport::post destination out of range");
  OP2CA_REQUIRE(msg.src >= 0 && msg.src < nranks_,
                "Transport::post source out of range");
  delay_post(msg.dst);
  Mailbox& box = boxes_[static_cast<std::size_t>(msg.dst)];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

bool Transport::take_locked(Mailbox& box, rank_t src, tag_t tag,
                            Message* out) {
  for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      *out = std::move(*it);
      box.queue.erase(it);
      return true;
    }
  }
  return false;
}

Message Transport::match(rank_t dst, rank_t src, tag_t tag) {
  OP2CA_REQUIRE(dst >= 0 && dst < nranks_, "Transport::match bad dst");
  Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mu);
  Message out;
  bool found = false;
  box.cv.wait(lock, [&] {
    found = take_locked(box, src, tag, &out);
    return found || poisoned_.load();
  });
  if (!found)
    raise("Transport poisoned: a peer rank failed while this rank was "
          "waiting for a message");
  return out;
}

bool Transport::try_match(rank_t dst, rank_t src, tag_t tag, Message* out) {
  OP2CA_REQUIRE(dst >= 0 && dst < nranks_, "Transport::try_match bad dst");
  Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lock(box.mu);
  return take_locked(box, src, tag, out);
}

void Transport::barrier() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_count_ == nranks_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [&] {
      return barrier_generation_ != my_generation || poisoned_.load();
    });
    if (barrier_generation_ == my_generation)
      raise("Transport poisoned: a peer rank failed during a barrier");
  }
}

void Transport::poison() {
  poisoned_.store(true);
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box.mu);
    box.cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    barrier_cv_.notify_all();
  }
}

std::size_t Transport::in_flight() const {
  std::size_t total = 0;
  for (const auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box.mu);
    total += box.queue.size();
  }
  return total;
}

void Transport::set_post_delay(rank_t dst, double seconds) {
  std::lock_guard<std::mutex> lock(delay_mu_);
  if (post_delay_s_.empty())
    post_delay_s_.assign(static_cast<std::size_t>(nranks_), 0.0);
  post_delay_s_[static_cast<std::size_t>(dst)] = seconds;
}

}  // namespace op2ca::sim
