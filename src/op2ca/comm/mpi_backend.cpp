#include "op2ca/comm/mpi_backend.hpp"

#include <cstdlib>

#include "op2ca/util/error.hpp"

namespace op2ca::sim {

// Launcher detection is a pure environment probe shared by the real and
// stub builds: OpenMPI (OMPI_*), MPICH/hydra and derivatives (PMI_*),
// PMIx-based launchers, and srun's PMI2 all export a world-size variable
// to every spawned process.
bool MpiBackend::launched_under_mpirun() {
  static const char* const kVars[] = {
      "OMPI_COMM_WORLD_SIZE", "PMI_SIZE", "PMIX_SIZE", "PMIX_RANK",
      "MV2_COMM_WORLD_SIZE",  "MPI_LOCALNRANKS",
  };
  for (const char* v : kVars)
    if (std::getenv(v) != nullptr) return true;
  return false;
}

}  // namespace op2ca::sim

#ifdef OP2CA_HAVE_MPI

#include <mpi.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

namespace op2ca::sim {

// Real-MPI implementation. One MPI process per rank; worker threads of
// the local rank may post concurrently (Comm sends are worker-safe), so
// every MPI call runs under one mutex — MPI_THREAD_SERIALIZED is
// sufficient — and blocking matches poll with the mutex released between
// probes so concurrent posts make progress.
struct MpiBackend::Impl {
  std::mutex mu;
  std::deque<std::pair<MPI_Request, ByteBuf>> pending;
  std::atomic<bool> poisoned{false};

  void drain_completed() {
    while (!pending.empty()) {
      int done = 0;
      MPI_Test(&pending.front().first, &done, MPI_STATUS_IGNORE);
      if (!done) break;
      pending.pop_front();
    }
  }
};

namespace {

int mpi_tag(tag_t tag) { return static_cast<int>(tag + kMpiTagShift); }

// Process-wide MPI lifecycle guard. Exactly one MPI_Init_thread happens
// no matter how many MpiBackends a process constructs (the test binaries
// build Worlds in sequence), and the matching MPI_Finalize runs once at
// process exit — never from a backend destructor, where it would kill
// MPI under a sibling World constructed later. An externally initialized
// MPI (embedding application) is respected: we query its thread level
// instead of re-initializing, and never finalize what we did not start.
struct MpiEnv {
  bool we_initialized = false;

  MpiEnv() {
    int initialized = 0;
    MPI_Initialized(&initialized);
    int provided = 0;
    if (!initialized) {
      MPI_Init_thread(nullptr, nullptr, MPI_THREAD_SERIALIZED, &provided);
      we_initialized = true;
    } else {
      MPI_Query_thread(&provided);
    }
    OP2CA_REQUIRE(
        provided >= MPI_THREAD_SERIALIZED,
        "MpiBackend: the MPI library provides thread level " +
            std::to_string(provided) + " but MPI_THREAD_SERIALIZED (" +
            std::to_string(MPI_THREAD_SERIALIZED) +
            ") is required — pool workers may post sends "
            "concurrently under one mutex");
  }

  ~MpiEnv() {
    if (!we_initialized) return;
    int finalized = 0;
    MPI_Finalized(&finalized);
    if (!finalized) MPI_Finalize();
  }
};

/// First call initializes MPI (idempotent from then on); the static's
/// destructor finalizes at process exit.
MpiEnv& mpi_env() {
  static MpiEnv env;
  return env;
}

}  // namespace

bool MpiBackend::compiled_with_mpi() { return true; }

int MpiBackend::mpi_world_size() {
  mpi_env();
  int size = 0;
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  return size;
}

MpiBackend::MpiBackend(int nranks)
    : nranks_(nranks), impl_(std::make_unique<Impl>()) {
  OP2CA_REQUIRE(nranks > 0, "MpiBackend requires at least one rank");
  mpi_env();
  int size = 0, rank = 0;
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  OP2CA_REQUIRE(size == nranks,
                "MpiBackend: World has " + std::to_string(nranks) +
                    " ranks but MPI_COMM_WORLD has " +
                    std::to_string(size) +
                    " processes; launch one process per rank (e.g. "
                    "mpirun -np " + std::to_string(nranks) + ")");
  local_rank_ = static_cast<rank_t>(rank);
}

MpiBackend::~MpiBackend() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [req, buf] : impl_->pending)
    MPI_Wait(&req, MPI_STATUS_IGNORE);
  impl_->pending.clear();
}

const char* MpiBackend::name() const { return "mpi"; }

void MpiBackend::post(Message msg) {
  OP2CA_REQUIRE(msg.src == local_rank_,
                "MpiBackend::post: rank " + std::to_string(msg.src) +
                    " is not local to this process");
  OP2CA_REQUIRE(msg.dst >= 0 && msg.dst < nranks_,
                "MpiBackend::post destination out of range");
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->drain_completed();
  MPI_Request req;
  MPI_Isend(msg.payload.data(), static_cast<int>(msg.payload.size()),
            MPI_BYTE, msg.dst, mpi_tag(msg.tag), MPI_COMM_WORLD, &req);
  // The buffer stays alive in the pending list until the send completes.
  impl_->pending.emplace_back(req, std::move(msg.payload));
}

bool MpiBackend::try_match(rank_t dst, rank_t src, tag_t tag,
                           Message* out) {
  OP2CA_REQUIRE(dst == local_rank_,
                "MpiBackend::match: rank " + std::to_string(dst) +
                    " is not local to this process");
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->drain_completed();
  int flag = 0;
  MPI_Message mmsg;
  MPI_Status status;
  MPI_Improbe(src, mpi_tag(tag), MPI_COMM_WORLD, &flag, &mmsg, &status);
  if (!flag) return false;
  int count = 0;
  MPI_Get_count(&status, MPI_BYTE, &count);
  out->src = src;
  out->dst = dst;
  out->tag = tag;
  out->payload.resize(static_cast<std::size_t>(count));
  MPI_Mrecv(out->payload.data(), count, MPI_BYTE, &mmsg,
            MPI_STATUS_IGNORE);
  return true;
}

Message MpiBackend::match(rank_t dst, rank_t src, tag_t tag) {
  // Polls with the mutex released between probes, so concurrent posts
  // from the rank's pool workers make progress.
  Message out;
  while (true) {
    if (impl_->poisoned.load())
      raise("Transport poisoned: a peer rank failed while this rank was "
            "waiting for a message");
    if (try_match(dst, src, tag, &out)) return out;
    std::this_thread::yield();
  }
}

void MpiBackend::barrier() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  MPI_Barrier(MPI_COMM_WORLD);
}

std::size_t MpiBackend::in_flight() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->pending.size();
}

void MpiBackend::poison() {
  // Unblock local waiters; a distributed failure cannot wake remote
  // ranks without aborting the job, which is the caller's decision.
  impl_->poisoned.store(true);
}

bool MpiBackend::poisoned() const { return impl_->poisoned.load(); }

}  // namespace op2ca::sim

#else  // !OP2CA_HAVE_MPI

namespace op2ca::sim {

// Compile-only stub: the MPI tag shift over an in-process fabric. Keeps MPI-less builds and the
// -DOP2CA_MPI=ON CI leg green, and gives the equivalence suite a second
// backend to hold against the sim fabric.
struct MpiBackend::Impl {
  explicit Impl(int nranks) : fabric(nranks) {}
  Transport fabric;
};

namespace {
tag_t mpi_tag(tag_t tag) { return tag + kMpiTagShift; }
}  // namespace

bool MpiBackend::compiled_with_mpi() { return false; }

int MpiBackend::mpi_world_size() { return 1; }

MpiBackend::MpiBackend(int nranks)
    : nranks_(nranks), impl_(std::make_unique<Impl>(nranks)) {}

MpiBackend::~MpiBackend() = default;

const char* MpiBackend::name() const { return "mpi-stub"; }

void MpiBackend::post(Message msg) {
  msg.tag = mpi_tag(msg.tag);
  impl_->fabric.post(std::move(msg));
}

Message MpiBackend::match(rank_t dst, rank_t src, tag_t tag) {
  Message out = impl_->fabric.match(dst, src, mpi_tag(tag));
  out.tag = tag;
  return out;
}

bool MpiBackend::try_match(rank_t dst, rank_t src, tag_t tag,
                           Message* out) {
  if (!impl_->fabric.try_match(dst, src, mpi_tag(tag), out)) return false;
  out->tag = tag;
  return true;
}

void MpiBackend::barrier() { impl_->fabric.barrier(); }

std::size_t MpiBackend::in_flight() const {
  return impl_->fabric.in_flight();
}

void MpiBackend::poison() { impl_->fabric.poison(); }

bool MpiBackend::poisoned() const { return impl_->fabric.poisoned(); }

}  // namespace op2ca::sim

#endif  // OP2CA_HAVE_MPI
