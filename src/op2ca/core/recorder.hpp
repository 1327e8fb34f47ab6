// Planned mode: an application's own chain functions, recorded as
// ChainSpecs instead of executed.
//
// A SpecRecorder offers the calls application code makes on a Runtime
// (handle look-ups, par_loop, chain_begin / chain_end), so the app entry
// points, written as templates on the runtime type, run unchanged over
// either. A recording needs only a MeshDef: no World, ranks or dat
// storage, and no kernel runs. Each par_loop becomes a LoopSpec through
// make_loop_spec, the function Runtime::par_loop builds its specs with,
// so the model and the benches price exactly the loops the executor runs.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "op2ca/core/chain.hpp"
#include "op2ca/core/runtime.hpp"

namespace op2ca::core {

/// A recorded program, each list in program order: one ChainSpec per
/// chain bracket, and the loops outside every bracket.
struct Recording {
  std::vector<ChainSpec> chains;
  std::vector<LoopSpec> loose;

  /// The chains by name. A name bracketed more than once must record the
  /// same loops every time; it raises otherwise.
  std::map<std::string, ChainSpec> chains_by_name() const;
  /// Dats the loose loops write. Between two runs of a chain they leave
  /// these halos stale (model::steady_state_stale).
  std::set<mesh::dat_id> loose_written() const;
};

class SpecRecorder : public MeshHandles {
public:
  explicit SpecRecorder(const mesh::MeshDef& mesh) : MeshHandles(mesh) {}

  /// Records one loop; the kernel is never called.
  template <typename Kernel, typename... Args>
  void par_loop(const std::string& name, Set s, Kernel&& /*kernel*/,
                Args... args) {
    static_assert(sizeof...(Args) > 0, "par_loop needs at least one arg");
    static_assert((LoopArg<Args> && ...),
                  "par_loop arguments must be built with arg_dat / arg_gbl");
    add(name, s, {args...});
  }

  /// Bracket rules as a Runtime's: no nesting, no chain_end without a
  /// chain_begin.
  void chain_begin(const std::string& name);
  void chain_end();

  /// The recording; raises while a bracket is still open.
  Recording finish();

private:
  void add(const std::string& name, Set s, const std::vector<Arg>& args);

  Recording rec_;
  std::optional<ChainSpec> open_;
};

/// Records `program(recorder)` over `mesh`.
template <typename Program>
Recording record(const mesh::MeshDef& mesh, Program&& program) {
  SpecRecorder recorder(mesh);
  program(recorder);
  return recorder.finish();
}

}  // namespace op2ca::core
