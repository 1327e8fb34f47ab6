#include "op2ca/comm/comm.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "op2ca/util/error.hpp"

namespace op2ca::sim {

void CommStats::reset_epoch() {
  epoch_msgs_sent = 0;
  epoch_bytes_sent = 0;
  epoch_msgs_received = 0;
  epoch_bytes_received = 0;
  epoch_max_msg_bytes = 0;
  for (int t = 0; t < kNumTiers; ++t) {
    epoch_msgs_by_tier[t] = 0;
    epoch_bytes_by_tier[t] = 0;
  }
  epoch_stripes = 0;
  epoch_neighbors.clear();
}

Comm::Comm(TransportBackend& transport, rank_t rank, const CostModel* cost,
           const TransportConfig* tcfg)
    : transport_(&transport), rank_(rank), cost_(cost) {
  OP2CA_REQUIRE(rank >= 0 && rank < transport.size(),
                "Comm rank out of range");
  if (tcfg != nullptr) tcfg_ = *tcfg;
  OP2CA_REQUIRE(tcfg_.rails >= 1 && tcfg_.rails <= kMaxRails,
                "Comm: rails out of [1, " + std::to_string(kMaxRails) + "]");
  dest_mu_ = std::make_unique<std::mutex[]>(
      static_cast<std::size_t>(transport.size()));
  next_send_channel_.assign(static_cast<std::size_t>(transport.size()), 0);
  next_recv_channel_.assign(static_cast<std::size_t>(transport.size()), 0);
}

Request Comm::isend(rank_t dst, tag_t tag,
                    std::span<const std::byte> payload) {
  Message msg;
  msg.payload.assign(payload.begin(), payload.end());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.sends_copied += 1;
  }
  return post_send(dst, tag, std::move(msg));
}

Request Comm::isend(rank_t dst, tag_t tag, ByteBuf payload) {
  Message msg;
  msg.payload = std::move(payload);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.sends_moved += 1;
  }
  return post_send(dst, tag, std::move(msg));
}

Request Comm::post_send(rank_t dst, tag_t tag, Message msg) {
  OP2CA_REQUIRE(dst != rank_, "isend to self is not supported");
  msg.src = rank_;
  msg.dst = dst;
  msg.tag = tag;
  const std::size_t n = msg.payload.size();

  // Pool workers of one rank may isend simultaneously. Sends
  // serialise per destination — posts to the same peer keep their
  // (src, dst, tag) FIFO order, posts to different peers proceed in
  // parallel instead of queueing behind one global lock.
  {
    std::lock_guard<std::mutex> lock(dest_mu_[static_cast<std::size_t>(dst)]);
    transport_->post(std::move(msg));
  }
  record_send(dst, n);

  Request req;
  req.kind_ = Request::Kind::Send;
  req.peer = dst;
  req.tag = tag;
  req.sent_bytes = n;
  return req;
}

void Comm::record_send(rank_t dst, std::size_t bytes) {
  const auto n = static_cast<std::int64_t>(bytes);
  const int tier = static_cast<int>(tier_to(dst));
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.msgs_sent += 1;
  stats_.bytes_sent += n;
  stats_.msgs_by_tier[tier] += 1;
  stats_.bytes_by_tier[tier] += n;
  stats_.send_neighbors.insert(dst);
  stats_.epoch_msgs_sent += 1;
  stats_.epoch_bytes_sent += n;
  stats_.epoch_max_msg_bytes = std::max(stats_.epoch_max_msg_bytes, n);
  stats_.epoch_msgs_by_tier[tier] += 1;
  stats_.epoch_bytes_by_tier[tier] += n;
  stats_.epoch_neighbors.insert(dst);
}

void Comm::record_recv(rank_t src, std::size_t bytes) {
  const auto n = static_cast<std::int64_t>(bytes);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.msgs_received += 1;
  stats_.bytes_received += n;
  stats_.epoch_msgs_received += 1;
  stats_.epoch_bytes_received += n;
  stats_.recv_neighbors.insert(src);
}

ByteBuf Comm::take_stripe_buf(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(stripe_mu_);
  return stripe_pool_.take(bytes);
}

void Comm::release_stripe_buf(ByteBuf buf) {
  std::lock_guard<std::mutex> lock(stripe_mu_);
  stripe_pool_.release(std::move(buf));
}

Request Comm::irecv(rank_t src, tag_t tag, ByteBuf* out) {
  OP2CA_REQUIRE(out != nullptr, "irecv requires an output buffer");
  OP2CA_REQUIRE(src != rank_, "irecv from self is not supported");
  Request req;
  req.kind_ = Request::Kind::Recv;
  req.peer = src;
  req.tag = tag;
  req.recv_buffer = out;
  return req;
}

// ---- Striping. ------------------------------------------------------------

Request Comm::stripe_isend(rank_t dst, tag_t tag, ByteBuf payload) {
  const std::size_t total = payload.size();
  if (!should_stripe(total)) return isend(dst, tag, std::move(payload));

  const auto slots = stripe_bounds(total, tcfg_.rails);
  for (std::size_t r = 0; r < slots.size(); ++r) {
    ByteBuf wire = take_stripe_buf(kStripeHeaderBytes + slots[r].bytes);
    StripeHeader h;
    h.magic = kStripeMagic;
    h.rail = static_cast<std::uint16_t>(r);
    h.rails = static_cast<std::uint16_t>(slots.size());
    h.total = total;
    h.offset = slots[r].offset;
    h.plan_hash = 0;
    encode_stripe_header(h, wire.data());
    std::memcpy(wire.data() + kStripeHeaderBytes,
                payload.data() + slots[r].offset, slots[r].bytes);
    Message msg;
    msg.payload = std::move(wire);
    post_send(dst, tag, std::move(msg));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.stripes_sent += static_cast<std::int64_t>(slots.size());
    stats_.epoch_stripes += static_cast<std::int64_t>(slots.size());
    stats_.sends_moved += 1;
  }
  // The logical payload was copied out stripe by stripe; recycle it for
  // the next stripe_isend so steady state allocates nothing.
  release_stripe_buf(std::move(payload));

  Request req;
  req.kind_ = Request::Kind::Send;
  req.peer = dst;
  req.tag = tag;
  req.sent_bytes = total;
  return req;
}

Request Comm::stripe_irecv(rank_t src, tag_t tag, ByteBuf* out,
                           std::size_t expect_bytes) {
  if (!should_stripe(expect_bytes)) return irecv(src, tag, out);
  OP2CA_REQUIRE(out != nullptr, "stripe_irecv requires an output buffer");
  OP2CA_REQUIRE(src != rank_, "stripe_irecv from self is not supported");
  Request req;
  req.kind_ = Request::Kind::StripedRecv;
  req.peer = src;
  req.tag = tag;
  req.recv_buffer = out;
  req.expect_bytes = expect_bytes;
  return req;
}

// ---- Persistent channels. -------------------------------------------------

std::vector<Channel> Comm::open_channels(
    std::span<const ChannelSpec> specs) {
  std::vector<Channel> out;
  out.reserve(specs.size());

  // Phase 1: build local state and announce every channel. Announcing
  // everything before confirming anything keeps the handshake
  // deadlock-free for any SPMD-symmetric open order: a peer confirming
  // its side never waits on a hello we have not yet posted.
  for (const ChannelSpec& spec : specs) {
    OP2CA_REQUIRE(spec.peer >= 0 && spec.peer < size() &&
                      spec.peer != rank_,
                  "open_channels: bad peer rank");
    OP2CA_REQUIRE(spec.bytes > 0, "open_channels: empty channel slot");
    Channel ch;
    ch.peer = spec.peer;
    ch.sender = spec.sender;
    ch.bytes = spec.bytes;
    ch.plan_hash = spec.plan_hash;
    auto& seq = spec.sender
                    ? next_send_channel_[static_cast<std::size_t>(spec.peer)]
                    : next_recv_channel_[static_cast<std::size_t>(spec.peer)];
    ch.id = seq++;
    ch.slots = should_stripe(ch.bytes)
                   ? stripe_bounds(ch.bytes, tcfg_.rails)
                   : std::vector<StripeSlot>{{0, ch.bytes}};

    ChannelHello hello;
    hello.magic = kHelloMagic;
    hello.id = ch.id;
    hello.bytes = ch.bytes;
    hello.rails = static_cast<std::uint16_t>(ch.rails());
    hello.plan_hash = ch.plan_hash;
    Message msg;
    msg.payload.resize(kHelloBytes);
    encode_hello(hello, msg.payload.data());
    post_send(ch.peer,
              ch.sender ? kChannelHelloSend : kChannelHelloRecv,
              std::move(msg));
    out.push_back(std::move(ch));
  }

  // Phase 2: confirm each channel against the peer's announcement of the
  // opposite direction. FIFO per (src, tag) pairs the k-th send-side
  // open with the k-th recv-side open.
  for (Channel& ch : out) {
    Message m = match_or_raise(
        ch.peer, ch.sender ? kChannelHelloRecv : kChannelHelloSend,
        "persistent-channel negotiation");
    record_recv(ch.peer, m.payload.size());
    const ChannelHello peer_hello =
        decode_hello(m.payload.data(), m.payload.size());
    OP2CA_REQUIRE(
        peer_hello.id == ch.id,
        "persistent channel out of sync with rank " +
            std::to_string(ch.peer) + ": local id " +
            std::to_string(ch.id) + " vs peer id " +
            std::to_string(peer_hello.id) +
            " (channels opened in different orders)");
    OP2CA_REQUIRE(
        peer_hello.plan_hash == ch.plan_hash,
        "stale persistent channel to rank " + std::to_string(ch.peer) +
            ": structural plan hash mismatch (one side rebuilt its "
            "exchange plan without renegotiating the channel)");
    OP2CA_REQUIRE(
        peer_hello.bytes == ch.bytes &&
            peer_hello.rails == static_cast<std::uint16_t>(ch.rails()),
        "persistent channel geometry mismatch with rank " +
            std::to_string(ch.peer) + ": local " +
            std::to_string(ch.bytes) + "B x " +
            std::to_string(ch.rails()) + " rails vs peer " +
            std::to_string(peer_hello.bytes) + "B x " +
            std::to_string(peer_hello.rails) + " rails");
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.channels_opened += 1;
  }
  return out;
}

Request Comm::channel_isend(const Channel& ch, ByteBuf payload) {
  OP2CA_REQUIRE(ch.valid(), "channel_isend on an unopened channel");
  OP2CA_REQUIRE(ch.sender, "channel_isend on a receive-side channel");
  OP2CA_REQUIRE(payload.size() == ch.bytes,
                "channel_isend payload does not fit the negotiated slot "
                "(" + std::to_string(payload.size()) + "B into " +
                    std::to_string(ch.bytes) + "B)");

  if (ch.rails() == 1) {
    // Degenerate slot: the negotiated geometry already pins
    // (peer, tag, size), so the payload moves zero-copy, headerless.
    Message msg;
    msg.payload = std::move(payload);
    post_send(ch.peer, ch.rail_tag(0), std::move(msg));
  } else {
    for (int r = 0; r < ch.rails(); ++r) {
      const StripeSlot& slot = ch.slots[static_cast<std::size_t>(r)];
      ByteBuf wire = take_stripe_buf(slot.bytes);
      std::memcpy(wire.data(), payload.data() + slot.offset, slot.bytes);
      Message msg;
      msg.payload = std::move(wire);
      post_send(ch.peer, ch.rail_tag(r), std::move(msg));
    }
    release_stripe_buf(std::move(payload));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.channel_sends += 1;
    stats_.sends_moved += 1;
    if (ch.rails() > 1) {
      stats_.stripes_sent += ch.rails();
      stats_.epoch_stripes += ch.rails();
    }
  }

  Request req;
  req.kind_ = Request::Kind::Send;
  req.peer = ch.peer;
  req.tag = ch.rail_tag(0);
  req.sent_bytes = ch.bytes;
  return req;
}

Request Comm::channel_irecv(const Channel& ch, ByteBuf* out) {
  OP2CA_REQUIRE(ch.valid(), "channel_irecv on an unopened channel");
  OP2CA_REQUIRE(!ch.sender, "channel_irecv on a send-side channel");
  OP2CA_REQUIRE(out != nullptr, "channel_irecv requires an output buffer");
  Request req;
  req.kind_ = Request::Kind::ChannelRecv;
  req.peer = ch.peer;
  req.tag = ch.rail_tag(0);
  req.recv_buffer = out;
  req.channel = &ch;
  return req;
}

// ---- Completion. ----------------------------------------------------------

Message Comm::match_or_raise(rank_t src, tag_t tag, const char* what) {
  Message m;
  if (!transport_->match_for(rank_, src, tag, &m, tcfg_.stripe_timeout_s))
    raise(std::string(what) + " from rank " + std::to_string(src) +
          " timed out after " + std::to_string(tcfg_.stripe_timeout_s) +
          "s (dropped rail or failed peer) — failing loudly rather than "
          "delivering a torn message");
  return m;
}

void Comm::complete_recv(Request& req) {
  Message msg = transport_->match(rank_, req.peer, req.tag);
  *req.recv_buffer = std::move(msg.payload);
  record_recv(req.peer, req.recv_buffer->size());
  charge(cost_ != nullptr
             ? cost_->message_time(
                   static_cast<std::int64_t>(req.recv_buffer->size()),
                   tier_to(req.peer))
             : 0.0);
}

void Comm::complete_striped_recv(Request& req) {
  const std::size_t total = req.expect_bytes;
  const auto slots = stripe_bounds(total, tcfg_.rails);
  ByteBuf assembled = take_stripe_buf(total);

  // Stripes arrive on one (src, tag) stream but rails may complete in
  // any order; the header's offset places each one. Every stripe is
  // validated against the slot geometry both ends derive from
  // (total, rails) — a short payload here is a torn message, not a
  // smaller transfer.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Message m = match_or_raise(req.peer, req.tag, "striped message");
    record_recv(req.peer, m.payload.size());
    const StripeHeader h =
        decode_stripe_header(m.payload.data(), m.payload.size());
    const std::size_t body = m.payload.size() - kStripeHeaderBytes;
    OP2CA_REQUIRE(h.total == total,
                  "striped message total mismatch: header says " +
                      std::to_string(h.total) + "B, receiver expected " +
                      std::to_string(total) + "B");
    OP2CA_REQUIRE(h.rails == slots.size(),
                  "striped message rail-count mismatch");
    OP2CA_REQUIRE(h.rail < slots.size(),
                  "striped message rail index out of range");
    const StripeSlot& slot = slots[h.rail];
    OP2CA_REQUIRE(h.offset == slot.offset && body == slot.bytes,
                  "torn stripe from rank " + std::to_string(req.peer) +
                      ": rail " + std::to_string(h.rail) + " carries " +
                      std::to_string(body) + "B at offset " +
                      std::to_string(h.offset) + ", expected " +
                      std::to_string(slot.bytes) + "B at offset " +
                      std::to_string(slot.offset));
    std::memcpy(assembled.data() + slot.offset,
                m.payload.data() + kStripeHeaderBytes, slot.bytes);
    release_stripe_buf(std::move(m.payload));
  }
  *req.recv_buffer = std::move(assembled);
  charge(cost_ != nullptr
             ? cost_->striped_time(static_cast<std::int64_t>(total),
                                   static_cast<int>(slots.size()),
                                   tier_to(req.peer))
             : 0.0);
}

void Comm::complete_channel_recv(Request& req) {
  const Channel& ch = *req.channel;
  if (ch.rails() == 1) {
    Message m = match_or_raise(ch.peer, ch.rail_tag(0),
                               "persistent-channel message");
    record_recv(ch.peer, m.payload.size());
    OP2CA_REQUIRE(m.payload.size() == ch.bytes,
                  "persistent channel from rank " +
                      std::to_string(ch.peer) + " delivered " +
                      std::to_string(m.payload.size()) +
                      "B into a " + std::to_string(ch.bytes) + "B slot");
    *req.recv_buffer = std::move(m.payload);
  } else {
    ByteBuf assembled = take_stripe_buf(ch.bytes);
    for (int r = 0; r < ch.rails(); ++r) {
      const StripeSlot& slot = ch.slots[static_cast<std::size_t>(r)];
      Message m = match_or_raise(ch.peer, ch.rail_tag(r),
                                 "persistent-channel stripe");
      record_recv(ch.peer, m.payload.size());
      OP2CA_REQUIRE(m.payload.size() == slot.bytes,
                    "persistent channel from rank " +
                        std::to_string(ch.peer) + ", rail " +
                        std::to_string(r) + ": got " +
                        std::to_string(m.payload.size()) +
                        "B for a " + std::to_string(slot.bytes) +
                        "B stripe slot");
      std::memcpy(assembled.data() + slot.offset, m.payload.data(),
                  slot.bytes);
      release_stripe_buf(std::move(m.payload));
    }
    *req.recv_buffer = std::move(assembled);
  }
  charge(cost_ != nullptr
             ? cost_->channel_time(static_cast<std::int64_t>(ch.bytes),
                                   ch.rails(), tier_to(ch.peer))
             : 0.0);
}

void Comm::wait(Request& req) {
  OP2CA_REQUIRE(req.valid(), "wait on an empty request");
  switch (req.kind_) {
    case Request::Kind::Recv: complete_recv(req); break;
    case Request::Kind::StripedRecv: complete_striped_recv(req); break;
    case Request::Kind::ChannelRecv: complete_channel_recv(req); break;
    default: break;  // Sends complete eagerly at isend time.
  }
  req.kind_ = Request::Kind::None;
}

void Comm::wait_all(std::span<Request> reqs) {
  for (auto& req : reqs)
    if (req.valid()) wait(req);
}

void Comm::barrier() { transport_->barrier(); }

}  // namespace op2ca::sim
