#include "op2ca/core/recorder.hpp"

#include <utility>

#include "op2ca/util/error.hpp"

namespace op2ca::core {

std::map<std::string, ChainSpec> Recording::chains_by_name() const {
  std::map<std::string, ChainSpec> out;
  for (const ChainSpec& c : chains) {
    const auto [it, fresh] = out.emplace(c.name, c);
    OP2CA_REQUIRE(fresh || it->second == c,
                  "chain '" + c.name +
                      "' was recorded with two different loop sequences");
  }
  return out;
}

std::set<mesh::dat_id> Recording::loose_written() const {
  std::set<mesh::dat_id> out;
  for (const LoopSpec& l : loose)
    for (const ArgSpec& a : l.args)
      if (a.dat >= 0 && writes(a.mode)) out.insert(a.dat);
  return out;
}

void SpecRecorder::chain_begin(const std::string& name) {
  OP2CA_REQUIRE(!open_, "chain_begin('" + name + "') while chain '" +
                            open_->name + "' is still open");
  open_.emplace().name = name;
}

void SpecRecorder::chain_end() {
  OP2CA_REQUIRE(open_.has_value(), "chain_end without chain_begin");
  rec_.chains.push_back(std::move(*open_));
  open_.reset();
}

Recording SpecRecorder::finish() {
  OP2CA_REQUIRE(!open_, "chain '" + open_->name +
                            "' is still open at the end of the recording");
  return std::exchange(rec_, Recording{});
}

void SpecRecorder::add(const std::string& name, Set s,
                       const std::vector<Arg>& args) {
  LoopSpec spec = make_loop_spec(mesh(), name, s, args, open_.has_value());
  (open_ ? open_->loops : rec_.loose).push_back(std::move(spec));
}

}  // namespace op2ca::core
