#include <cstring>
#include <exception>
#include <ostream>
#include <mutex>
#include <thread>
#include <type_traits>

#include "op2ca/comm/mpi_backend.hpp"
#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/halo/renumber.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/log.hpp"
#include "op2ca/util/table.hpp"

namespace op2ca::core {

World::World(mesh::MeshDef mesh, WorldConfig cfg)
    : mesh_(std::move(mesh)), cfg_(std::move(cfg)) {
  OP2CA_REQUIRE(cfg_.nranks >= 1, "World needs nranks >= 1");
  OP2CA_REQUIRE(cfg_.threads_per_rank >= 1,
                "World needs threads_per_rank >= 1");
  OP2CA_REQUIRE(cfg_.halo_depth >= 1, "World needs halo_depth >= 1");
  OP2CA_REQUIRE(mesh_.num_sets() > 0, "World needs a non-empty mesh");

  // Temporal tiling needs layers for the fused window to grow into: a
  // tile of k invocations extends the Alg-3 window roughly k-fold, so
  // the plan is built k times deeper. The largest tile any enabled chain
  // can run at governs; tile 1 everywhere leaves the depth untouched.
  int max_tile = 1;
  for (const auto& [name, entry] : cfg_.chains.entries())
    if (entry.enabled) max_tile = std::max(max_tile, entry.tile);
  const std::int64_t plan_depth =
      std::int64_t{cfg_.halo_depth} * std::int64_t{max_tile};
  OP2CA_REQUIRE(plan_depth <= halo::kMaxHaloDepth,
                "halo_depth " + std::to_string(cfg_.halo_depth) +
                    " x largest tile " + std::to_string(max_tile) + " = " +
                    std::to_string(plan_depth) +
                    " halo layers exceeds the plan limit of " +
                    std::to_string(halo::kMaxHaloDepth) + " layers");

  halo::HaloPlanOptions opts;
  opts.depth = static_cast<int>(plan_depth);
  opts.build_local_maps = true;
  plan_ = halo::build_halo_plan(
      mesh_,
      partition::partition_mesh(mesh_, cfg_.nranks, cfg_.partitioner, 0),
      opts);

  transport_ = sim::make_backend(cfg_.transport, cfg_.nranks);

  // Process-per-rank SPMD mode: under a real MPI the backend pins this
  // process to one rank; only that rank's state (dats, plans, pools)
  // exists here — peer ranks live in peer processes. The halo plan above
  // is a deterministic function of the mesh and config (its partition
  // included), so every process derives the identical global plan and
  // disagreement is impossible by construction.
  if (auto* mpi = dynamic_cast<sim::MpiBackend*>(transport_.get()))
    spmd_rank_ = mpi->local_rank();
  ranks_.resize(static_cast<std::size_t>(cfg_.nranks));
  for (rank_t r = 0; r < cfg_.nranks; ++r)
    if (spmd_rank_ < 0 || r == spmd_rank_)
      ranks_[static_cast<std::size_t>(r)] =
          std::make_unique<detail::RankState>(this, *transport_, r);

  // The ranks gather their rows of each dat in turn, and the World frees
  // that dat's global values before the next, so it never holds every dat
  // twice. From here on the ranks own the values: fetch_dat reads them,
  // reset_dat replaces them.
  for (mesh::dat_id d = 0; d < mesh_.num_dats(); ++d) {
    std::vector<double>& global = mesh_.mutable_dat(d).data;
    for (auto& state : ranks_)
      if (state) state->refresh_dat_from_global(d, global);
    std::vector<double>().swap(global);
  }
}

World::~World() = default;

void World::run(const std::function<void(Runtime&)>& spmd) {
  running_.store(true);
  struct Idle {
    std::atomic<bool>& running;
    ~Idle() { running.store(false); }
  } idle{running_};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto rank_main = [&](detail::RankState* state) {
    try {
      Runtime rt(this, state);
      spmd(rt);
      detail::flush_deferred(*state, "the end of World::run");
    } catch (...) {
      // A failed run drops its deferred loops: they belong to the failed
      // program, and their arg_gbl READ pointers into its frames.
      state->deferred = {};
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // Wake peers blocked in matches/barriers so the run can unwind.
      transport_->poison();
    }
  };

  if (spmd_rank_ >= 0) {
    // One process, one rank: run inline. A peer process that fails exits
    // non-zero and the MPI launcher tears the job down; poison() above
    // only unblocks threads of THIS process, so the local error still
    // surfaces promptly below.
    rank_main(ranks_[static_cast<std::size_t>(spmd_rank_)].get());
  } else if (cfg_.nranks == 1) {
    rank_main(ranks_[0].get());
  } else {
    std::vector<std::thread> threads;
    threads.reserve(ranks_.size());
    for (auto& state : ranks_)
      threads.emplace_back(rank_main, state.get());
    for (auto& t : threads) t.join();
  }

  if (first_error) {
    // A failed rank may leave peers blocked in matches that will never
    // complete only if they also depend on it; joining above succeeded,
    // so all ranks have returned (errored ranks threw out of their SPMD
    // body). Surface the first error.
    std::rethrow_exception(first_error);
  }
}

sim::Comm& World::spmd_comm() const {
  OP2CA_ASSERT(spmd_rank_ >= 0, "spmd_comm outside SPMD mode");
  return ranks_[static_cast<std::size_t>(spmd_rank_)]->comm;
}

std::vector<double> World::fetch_dat(mesh::dat_id d) const {
  const mesh::DatDef& dd = mesh_.dat(d);
  std::vector<double> out(static_cast<std::size_t>(
      mesh_.set(dd.set).size * dd.dim));
  for (const auto& state : ranks_) {
    if (!state) continue;  // SPMD mode: peer ranks live in peer processes.
    halo::scatter_owned(state->dats[static_cast<std::size_t>(d)].data.data(),
                        dd.dim, plan_.layout(state->rank, dd.set), &out);
  }
  // SPMD mode: each process scattered only its owned slots into a
  // zero-initialized array, and every global element is owned by exactly
  // one rank, so an element-wise sum reassembles the full array bitwise
  // on every process. Collective — all processes must call fetch_dat in
  // the same order (they do: SPMD programs run the same code).
  if (spmd_rank_ >= 0) out = spmd_comm().allreduce_sum(std::move(out));
  return out;
}

void World::reset_dat(mesh::dat_id d, const std::vector<double>& global) {
  const mesh::DatDef& dd = mesh_.dat(d);
  OP2CA_REQUIRE(static_cast<gidx_t>(global.size()) ==
                    mesh_.set(dd.set).size * dd.dim,
                "reset_dat: size mismatch for dat " + dd.name);
  // SPMD mode needs no exchange: the caller's global array is replicated
  // (every process runs the same program), so each refreshes its rank.
  for (auto& state : ranks_)
    if (state) state->refresh_dat_from_global(d, global);
}

namespace detail {

ByteBuf serialize_metrics(const std::map<std::string, LoopMetrics>& m) {
  static_assert(std::is_trivially_copyable_v<LoopMetrics>,
                "LoopMetrics must stay flat for the SPMD metrics wire");
  std::size_t total = 0;
  for (const auto& [name, lm] : m)
    total += sizeof(std::uint32_t) + name.size() + sizeof(LoopMetrics);
  ByteBuf out(total);
  std::size_t off = 0;
  for (const auto& [name, lm] : m) {
    const std::uint32_t len = static_cast<std::uint32_t>(name.size());
    std::memcpy(out.data() + off, &len, sizeof(len));
    off += sizeof(len);
    std::memcpy(out.data() + off, name.data(), name.size());
    off += name.size();
    std::memcpy(out.data() + off, &lm, sizeof(LoopMetrics));
    off += sizeof(LoopMetrics);
  }
  return out;
}

void merge_serialized_metrics(const ByteBuf& blob,
                              std::map<std::string, LoopMetrics>* into) {
  std::size_t off = 0;
  while (off < blob.size()) {
    OP2CA_ASSERT(off + sizeof(std::uint32_t) <= blob.size(),
                 "metrics blob truncated");
    std::uint32_t len = 0;
    std::memcpy(&len, blob.data() + off, sizeof(len));
    off += sizeof(len);
    OP2CA_ASSERT(off + len + sizeof(LoopMetrics) <= blob.size(),
                 "metrics blob truncated");
    std::string name(reinterpret_cast<const char*>(blob.data() + off), len);
    off += len;
    LoopMetrics lm;
    std::memcpy(&lm, blob.data() + off, sizeof(LoopMetrics));
    off += sizeof(LoopMetrics);
    (*into)[name].merge_from(lm);
  }
}

}  // namespace detail

void World::require_idle(const char* call) const {
  if (running_.load())
    raise(std::string("World::") + call +
          " called while World::run is in progress (rank threads are "
          "writing the metrics; call it before or after run)");
}

std::map<std::string, LoopMetrics> World::merged_metrics(
    bool chains, const char* call) const {
  require_idle(call);
  std::map<std::string, LoopMetrics> merged;
  for (const auto& state : ranks_) {
    if (!state) continue;
    const auto& src = chains ? state->chain_metrics : state->loop_metrics;
    for (const auto& [name, m] : src) merged[name].merge_from(m);
  }
  if (spmd_rank_ >= 0) {
    // Collective: exchange each process's single-rank merge and fold the
    // peers' in rank order, so every process reports the same totals the
    // threaded World would.
    const std::vector<ByteBuf> all =
        spmd_comm().allgather_bytes(detail::serialize_metrics(merged));
    std::map<std::string, LoopMetrics> global;
    for (const ByteBuf& blob : all)
      detail::merge_serialized_metrics(blob, &global);
    return global;
  }
  return merged;
}

std::map<std::string, LoopMetrics> World::loop_metrics() const {
  return merged_metrics(/*chains=*/false, "loop_metrics");
}

std::map<std::string, LoopMetrics> World::chain_metrics() const {
  return merged_metrics(/*chains=*/true, "chain_metrics");
}

void World::write_metrics_csv(std::ostream& os) const {
  require_idle("write_metrics_csv");
  using Merge = LoopMetrics::Merge;
  std::vector<std::string> header = {"kind", "name"};
  LoopMetrics::for_each_field(
      [&header](const char* name, auto, Merge) { header.push_back(name); });
  Table t;
  t.set_header(std::move(header));
  t.set_precision(6);
  auto add = [&t](const std::string& kind, const std::string& name,
                  const LoopMetrics& m) {
    std::vector<Cell> row(2 + LoopMetrics::num_fields());
    row[0] = kind;
    row[1] = name;
    std::size_t col = 2;
    LoopMetrics::for_each_field(
        [&](const char*, auto field, Merge) { row[col++] = m.*field; });
    t.add_row(std::move(row));
  };
  for (const auto& [name, m] : loop_metrics()) add("loop", name, m);
  for (const auto& [name, m] : chain_metrics()) add("chain", name, m);
  t.write_csv(os);
}

void World::clear_metrics() {
  require_idle("clear_metrics");
  for (auto& state : ranks_) {
    if (!state) continue;
    state->loop_metrics.clear();
    state->chain_metrics.clear();
  }
}

}  // namespace op2ca::core
