#include "op2ca/comm/comm.hpp"

#include <algorithm>
#include <string>

#include "op2ca/util/error.hpp"

namespace op2ca::sim {

void CommStats::reset_epoch() {
  epoch_msgs_sent = 0;
  epoch_bytes_sent = 0;
  epoch_max_msg_bytes = 0;
  epoch_neighbors.clear();
}

Comm::Comm(TransportBackend& transport, rank_t rank)
    : transport_(&transport), rank_(rank) {
  OP2CA_REQUIRE(rank >= 0 && rank < transport.size(),
                "Comm rank out of range");
}

Request Comm::isend(rank_t dst, tag_t tag,
                    std::span<const std::byte> payload) {
  Message msg;
  msg.payload.assign(payload.begin(), payload.end());
  return post_send(dst, tag, std::move(msg));
}

Request Comm::isend(rank_t dst, tag_t tag, ByteBuf payload) {
  Message msg;
  msg.payload = std::move(payload);
  return post_send(dst, tag, std::move(msg));
}

void Comm::check_peer(const char* op, rank_t peer) const {
  OP2CA_REQUIRE(peer >= 0 && peer < size(),
                std::string(op) + ": rank " + std::to_string(peer) +
                    " is outside [0, " + std::to_string(size()) + ")");
  OP2CA_REQUIRE(peer != rank_, std::string(op) + " with self (rank " +
                                   std::to_string(peer) +
                                   ") is not supported");
}

Request Comm::post_send(rank_t dst, tag_t tag, Message msg) {
  check_peer("isend", dst);
  msg.src = rank_;
  msg.dst = dst;
  msg.tag = tag;
  const std::size_t n = msg.payload.size();
  transport_->post(std::move(msg));
  record_send(dst, n);

  Request req;
  req.kind_ = Request::Kind::Send;
  req.peer = dst;
  req.tag = tag;
  return req;
}

void Comm::record_send(rank_t dst, std::size_t bytes) {
  const auto n = static_cast<std::int64_t>(bytes);
  stats_.epoch_msgs_sent += 1;
  stats_.epoch_bytes_sent += n;
  stats_.epoch_max_msg_bytes = std::max(stats_.epoch_max_msg_bytes, n);
  stats_.epoch_neighbors.insert(dst);
}

Request Comm::irecv(rank_t src, tag_t tag, ByteBuf* out) {
  OP2CA_REQUIRE(out != nullptr, "irecv requires an output buffer");
  check_peer("irecv", src);
  Request req;
  req.kind_ = Request::Kind::Recv;
  req.peer = src;
  req.tag = tag;
  req.recv_buffer = out;
  return req;
}

void Comm::wait(Request& req) {
  OP2CA_REQUIRE(req.valid(), "wait on an empty request");
  // Sends complete eagerly at isend time.
  if (req.kind_ == Request::Kind::Recv) {
    Message msg = transport_->match(rank_, req.peer, req.tag);
    *req.recv_buffer = std::move(msg.payload);
  }
  req.kind_ = Request::Kind::None;
}

void Comm::wait_all(std::span<Request> reqs) {
  for (auto& req : reqs)
    if (req.valid()) wait(req);
}

void Comm::barrier() { transport_->barrier(); }

}  // namespace op2ca::sim
