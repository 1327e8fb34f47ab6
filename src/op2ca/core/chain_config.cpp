#include "op2ca/core/chain_config.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

#include "op2ca/util/error.hpp"

namespace op2ca::core {
namespace {

/// Splits "key=value" into its parts; returns false if no '='.
bool split_kv(const std::string& token, std::string* key,
              std::string* value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

/// Parses `key`'s value, which must be an integer in [lo, hi] with no
/// trailing text.
int parse_int(const std::string& key, const std::string& v, int lo, int hi,
              const std::string& where) {
  int out = 0;
  const char* last = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), last, out);
  OP2CA_REQUIRE(ec == std::errc() && ptr == last,
                "ChainConfig: " + key + " needs an integer, got '" + v +
                    "' at " + where);
  OP2CA_REQUIRE(out >= lo && out <= hi,
                "ChainConfig: " + key + "=" + v + " is out of range [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "] at " + where);
  return out;
}

}  // namespace

ChainConfig ChainConfig::load(const std::string& path) {
  std::ifstream in(path);
  OP2CA_REQUIRE(in.good(), "ChainConfig: cannot open " + path);
  return parse(in);
}

ChainConfig ChainConfig::parse(std::istream& in) {
  ChainConfig cfg;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // blank

    const std::string where = "line " + std::to_string(lineno);
    if (directive == "default") {
      std::string v;
      OP2CA_REQUIRE(static_cast<bool>(ls >> v),
                    "ChainConfig: 'default' needs on|off at " + where);
      OP2CA_REQUIRE(v == "on" || v == "off",
                    "ChainConfig: 'default' must be on|off at " + where);
      cfg.default_enabled_ = v == "on";
      continue;
    }
    OP2CA_REQUIRE(directive == "chain",
                  "ChainConfig: unknown directive '" + directive + "' at " +
                      where);
    std::string name;
    OP2CA_REQUIRE(static_cast<bool>(ls >> name),
                  "ChainConfig: 'chain' needs a name at " + where);
    Entry entry;
    std::string token;
    while (ls >> token) {
      std::string key, value;
      OP2CA_REQUIRE(split_kv(token, &key, &value),
                    "ChainConfig: expected key=value, got '" + token +
                        "' at " + where);
      constexpr int kMax = std::numeric_limits<int>::max();
      if (key == "loops")
        entry.loops = parse_int(key, value, 0, kMax, where);
      else if (key == "depth")
        entry.max_depth = parse_int(key, value, 0, kMax, where);
      else if (key == "tile")
        entry.tile = parse_int(key, value, 1, kMax, where);
      else if (key == "enabled")
        entry.enabled = parse_int(key, value, 0, 1, where) != 0;
      else
        raise("ChainConfig: unknown key '" + key + "' at " + where);
    }
    cfg.entries_[name] = entry;
  }
  return cfg;
}

void ChainConfig::enable(const std::string& name, int loops, int max_depth,
                         int tile) {
  OP2CA_REQUIRE(tile >= 1, "ChainConfig: chain '" + name +
                               "' needs tile >= 1, got " +
                               std::to_string(tile));
  entries_[name] = Entry{true, loops, max_depth, tile};
}

void ChainConfig::disable(const std::string& name) {
  entries_[name] = Entry{false, 0, 0, 1};
}

bool ChainConfig::enabled(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return default_enabled_;
  return it->second.enabled;
}

int ChainConfig::max_depth(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.max_depth;
}

int ChainConfig::expected_loops(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.loops;
}

int ChainConfig::tile(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? 1 : it->second.tile;
}

}  // namespace op2ca::core
