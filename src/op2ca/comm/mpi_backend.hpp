// The MPI implementation of TransportBackend.
//
// Built with -DOP2CA_MPI=ON and an MPI toolchain (OP2CA_HAVE_MPI), this
// maps the backend contract onto MPI point-to-point: post -> MPI_Isend
// (pending requests drained opportunistically), match -> MPI_Improbe /
// MPI_Mrecv polling, barrier -> MPI_Barrier, poison -> local unblock +
// eventual MPI_Abort on unrecoverable failure. Each MPI process drives
// exactly ONE rank (nranks must equal the communicator size); World
// detects this through local_rank() and runs only that rank's thread, so
// the same SPMD binaries launch under mpirun on a real cluster. Internal
// tags (negative collectives) shift by kMpiTagShift into MPI's
// non-negative tag space.
//
// Without MPI this is a compile-only stub: the identical tag encoding
// runs over an in-process mailbox fabric, so the MPI code path's tag
// shift is exercised by the regular test suite — the equivalence suite
// runs sim-vs-MPI-stub rows — and the build stays green on MPI-less
// hosts and CI legs.
//
// Lifecycle: MPI_Init_thread / MPI_Finalize are owned by one process-wide
// guard (first MpiBackend or mpi_world_size() call initializes, a single
// finalize runs at process exit), so test binaries that build several
// Worlds in sequence neither double-init nor finalize under a live
// sibling. A thread level below MPI_THREAD_SERIALIZED fails loudly: MPI
// calls come from whichever thread builds or runs a World, one at a
// time under one mutex, which SERIALIZED permits but SINGLE/FUNNELED do
// not.
#pragma once

#include "op2ca/comm/transport.hpp"

namespace op2ca::sim {

class MpiBackend : public TransportBackend {
public:
  explicit MpiBackend(int nranks);
  ~MpiBackend() override;

  /// True when compiled against a real MPI (OP2CA_HAVE_MPI).
  static bool compiled_with_mpi();

  /// True when this process was started by an MPI launcher (mpirun /
  /// mpiexec / srun), detected from the launcher's environment without
  /// touching MPI itself — usable from stub builds and before any
  /// backend exists. Sim-only test suites use this to GTEST_SKIP under a
  /// real MPI launch instead of running duplicated on every process.
  static bool launched_under_mpirun();

  /// MPI_COMM_WORLD size of this process. Initializes MPI on first call
  /// (idempotent; see the lifecycle notes below). Returns 1 in the stub.
  /// Callers size their World's nranks with this so the partitioning
  /// matches the launch width.
  static int mpi_world_size();

  const char* name() const override;
  int size() const override { return nranks_; }

  /// The single rank this process drives under real MPI; -1 in the stub
  /// (every rank is local, as in the sim backend). World switches into
  /// process-per-rank SPMD mode when this is >= 0.
  rank_t local_rank() const { return local_rank_; }

  void post(Message msg) override;
  Message match(rank_t dst, rank_t src, tag_t tag) override;
  bool try_match(rank_t dst, rank_t src, tag_t tag, Message* out) override;
  void barrier() override;
  std::size_t in_flight() const override;
  void poison() override;
  bool poisoned() const override;

private:
  struct Impl;
  int nranks_ = 0;
  rank_t local_rank_ = -1;
  std::unique_ptr<Impl> impl_;
};

/// Offset added to internal tags so collectives' negative tags land in
/// MPI's non-negative tag space.
inline constexpr tag_t kMpiTagShift = 8;

}  // namespace op2ca::sim
