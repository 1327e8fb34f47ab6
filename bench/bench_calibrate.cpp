// CommBench-style wire calibration across transport backends.
//
// Measures the model's one wire (latency, bandwidth, effective rails) on
// the backend actually selected — the in-process sim fabric, the MPI
// stub, or real MPI under mpirun — and emits BENCH_calibration.json for
// the fig drivers' --calibration. Three sweeps, in the CommBench
// pattern, all at stride nranks/2:
//
//   latency     8-byte ping-pong between ranks 0 and nranks/2; RTT/2.
//   bandwidth   large-message ping-pong on the same pair; bytes/(RTT/2).
//   rails       every rank joins a disjoint pair at the same stride and
//               streams concurrently; effective rails = aggregate
//               bandwidth / single-pair bandwidth, clamped to
//               [1, kMaxRails].
//
// Measurements use the raw TransportBackend post/match interface and
// WallTimer — below Comm, so no statistics bookkeeping colours the
// numbers. Payload staging allocation rides along on the sender, as it
// does in the runtime's pack path.
//
// Usage:
//   bench_calibrate [--backend=sim|mpi] [--nranks=N] [--bytes=B]
//                   [--iters=N] [--out=FILE]
//
// Under a real mpirun launch, --nranks is ignored: the MPI world size
// wins, and only the local rank runs in this process (SPMD mode, same
// as World::run).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "op2ca/comm/mpi_backend.hpp"
#include "op2ca/comm/transport.hpp"
#include "op2ca/model/machine.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/options.hpp"
#include "op2ca/util/table.hpp"
#include "op2ca/util/timer.hpp"

namespace {

using namespace op2ca;
using namespace op2ca::sim;

constexpr tag_t kTagPing = 1001;
constexpr tag_t kTagPong = 1002;
constexpr tag_t kTagResult = 1003;

struct Config {
  std::string backend = "sim";
  int nranks = 4;
  std::size_t bytes = std::size_t{1} << 20;
  int iters = 16;
  std::string out = "BENCH_calibration.json";
};

void send_bytes(TransportBackend& tb, rank_t src, rank_t dst, tag_t tag,
                std::size_t bytes) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload = ByteBuf(bytes);
  tb.post(std::move(m));
}

void send_double(TransportBackend& tb, rank_t src, rank_t dst, tag_t tag,
                 double v) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.payload = ByteBuf(sizeof(double));
  std::memcpy(m.payload.data(), &v, sizeof(double));
  tb.post(std::move(m));
}

double recv_double(TransportBackend& tb, rank_t dst, rank_t src, tag_t tag) {
  const Message m = tb.match(dst, src, tag);
  OP2CA_ASSERT(m.payload.size() == sizeof(double),
               "calibrate: result payload size mismatch");
  double v = 0;
  std::memcpy(&v, m.payload.data(), sizeof(double));
  return v;
}

/// One ping-pong sweep between `me` and `peer`; returns the initiator's
/// measured one-way time per message (RTT/2), 0 on the echo side.
double ping_pong(TransportBackend& tb, rank_t me, rank_t peer,
                 std::size_t bytes, int iters, bool initiator) {
  const int warmup = std::max(2, iters / 8);
  WallTimer timer;
  for (int i = 0; i < warmup + iters; ++i) {
    if (i == warmup) timer.reset();
    if (initiator) {
      send_bytes(tb, me, peer, kTagPing, bytes);
      (void)tb.match(me, peer, kTagPong);
    } else {
      (void)tb.match(me, peer, kTagPing);
      send_bytes(tb, me, peer, kTagPong, bytes);
    }
  }
  if (!initiator) return 0;
  return timer.elapsed() / (2.0 * iters);
}

/// Disjoint same-stride pairing: ranks fold into blocks of 2*stride and
/// rank b+i talks to b+i+stride. Returns the peer, or -1 when this rank
/// sits in a partial trailing block and idles.
rank_t pair_peer(rank_t r, int stride, int nranks, bool* initiator) {
  const rank_t block = r / (2 * stride) * (2 * stride);
  if (block + 2 * stride > nranks) return -1;
  const rank_t off = r - block;
  *initiator = off < stride;
  return *initiator ? r + stride : r - stride;
}

struct WireMeasurement {
  double latency_s = 0;
  double bandwidth_Bps = 0;
  int rails = 1;
  int stride = 1;
  int pairs = 1;
};

/// Runs the three sweeps at stride nranks/2. Every rank must call this
/// (collective: barriers fence each sweep); the result is meaningful on
/// rank 0 only.
WireMeasurement measure_wire(TransportBackend& tb, rank_t me,
                             const Config& cfg) {
  const int nranks = tb.size();
  const int stride = nranks / 2;
  WireMeasurement out;
  out.stride = stride;

  // Latency + single-pair bandwidth: only the (0, stride) pair talks.
  tb.barrier();
  const int lat_iters = cfg.iters * 25;
  if (me == 0)
    out.latency_s =
        ping_pong(tb, me, stride, 8, lat_iters, /*initiator=*/true);
  else if (me == stride)
    ping_pong(tb, me, 0, 8, lat_iters, /*initiator=*/false);

  tb.barrier();
  double single_s = 0;
  if (me == 0)
    single_s =
        ping_pong(tb, me, stride, cfg.bytes, cfg.iters, /*initiator=*/true);
  else if (me == stride)
    ping_pong(tb, me, 0, cfg.bytes, cfg.iters, /*initiator=*/false);
  if (me == 0)
    out.bandwidth_Bps = static_cast<double>(cfg.bytes) / single_s;

  // Concurrent pairs at the same stride: each initiator measures its
  // pair's bandwidth and reports to rank 0, which sums the aggregate.
  tb.barrier();
  bool initiator = false;
  const rank_t peer = pair_peer(me, stride, nranks, &initiator);
  double mine = 0;
  if (peer >= 0) {
    const double one_way =
        ping_pong(tb, me, peer, cfg.bytes, cfg.iters, initiator);
    if (initiator) mine = static_cast<double>(cfg.bytes) / one_way;
  }
  if (me == 0) {
    double aggregate = 0;
    int pairs = 0;
    if (peer >= 0 && initiator) {
      aggregate += mine;
      ++pairs;
    }
    for (rank_t r = 1; r < nranks; ++r) {
      bool r_init = false;
      if (pair_peer(r, stride, nranks, &r_init) >= 0 && r_init) {
        aggregate += recv_double(tb, 0, r, kTagResult);
        ++pairs;
      }
    }
    out.pairs = pairs;
    const double ratio = aggregate / out.bandwidth_Bps;
    out.rails = static_cast<int>(
        std::clamp(std::lround(ratio), long{1}, long{model::kMaxRails}));
  } else if (peer >= 0 && initiator) {
    send_double(tb, me, 0, kTagResult, mine);
  }
  tb.barrier();
  return out;
}

void write_json(const Config& cfg, const WireMeasurement& m,
                const std::string& backend_label) {
  std::ofstream os(cfg.out);
  OP2CA_REQUIRE(os.good(), "calibrate: cannot write " + cfg.out);
  os << "{\n";
  os << "  \"backend\": \"" << backend_label << "\",\n";
  os << "  \"nranks\": " << cfg.nranks << ",\n";
  os << "  \"iters\": " << cfg.iters << ",\n";
  os << "  \"bytes\": " << cfg.bytes << ",\n";
  os << "  \"wire\": {\"latency_s\": " << m.latency_s
     << ", \"bandwidth_Bps\": " << m.bandwidth_Bps
     << ", \"rails\": " << m.rails << ", \"stride\": " << m.stride
     << ", \"pairs\": " << m.pairs << "}\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    const Options opt(argc, argv,
                      {"backend", "nranks", "bytes", "iters", "out"});
    cfg.backend = opt.get_string("backend", cfg.backend);
    cfg.nranks = static_cast<int>(opt.get_int("nranks", cfg.nranks));
    cfg.bytes = static_cast<std::size_t>(
        opt.get_int("bytes", static_cast<std::int64_t>(cfg.bytes)));
    cfg.iters = static_cast<int>(opt.get_int("iters", cfg.iters));
    cfg.out = opt.get_string("out", cfg.out);

    TransportConfig tc;
    tc.backend = backend_by_name(cfg.backend);
    if (tc.backend == BackendKind::Mpi && MpiBackend::compiled_with_mpi() &&
        MpiBackend::launched_under_mpirun()) {
      // Real launch: the communicator decides the width, not --nranks.
      cfg.nranks = MpiBackend::mpi_world_size();
    }
    OP2CA_REQUIRE(cfg.nranks >= 2,
                  "calibrate: need nranks >= 2 (launch more ranks or pass "
                  "--nranks)");
    OP2CA_REQUIRE(cfg.iters >= 1, "--iters must be >= 1");
    OP2CA_REQUIRE(cfg.bytes >= 8, "--bytes must be >= 8");

    std::unique_ptr<TransportBackend> tb = make_backend(tc, cfg.nranks);
    rank_t local = -1;
    if (auto* mpi = dynamic_cast<MpiBackend*>(tb.get()))
      local = mpi->local_rank();

    WireMeasurement wire;
    const auto rank_body = [&](rank_t r) {
      const WireMeasurement m = measure_wire(*tb, r, cfg);
      if (r == 0) wire = m;
    };
    if (local >= 0) {
      rank_body(local);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(cfg.nranks));
      for (rank_t r = 0; r < cfg.nranks; ++r)
        threads.emplace_back(rank_body, r);
      for (auto& t : threads) t.join();
    }

    if (local <= 0) {
      // Rank 0 of an mpirun launch, or the whole in-process run.
      std::string label = cfg.backend;
      if (tc.backend == BackendKind::Mpi && !MpiBackend::compiled_with_mpi())
        label = "mpi-stub";
      write_json(cfg, wire, label);

      Table table("wire calibration (" + label + ", " +
                  std::to_string(cfg.nranks) + " ranks)");
      table.set_header({"stride", "pairs", "latency_us", "bandwidth_GBps",
                        "rails"});
      table.set_precision(3);
      table.add_row({static_cast<std::int64_t>(wire.stride),
                     static_cast<std::int64_t>(wire.pairs),
                     wire.latency_s * 1e6, wire.bandwidth_Bps / 1e9,
                     static_cast<std::int64_t>(wire.rails)});
      table.print(std::cout);
      std::cout << "wrote " << cfg.out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_calibrate: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
