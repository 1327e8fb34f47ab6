// CA chain configuration (paper Section 3.4): the only input the code
// generator needs beyond the application source is a configuration file
// listing the loop-chains to execute with the CA back-end — chain name,
// loop count and maximum halo extension. Chains not listed (or disabled)
// run as standard per-loop OP2 execution.
#pragma once

#include <iosfwd>
#include <map>
#include <string>

namespace op2ca::core {

class ChainConfig {
public:
  struct Entry {
    bool enabled = true;
    int loops = 0;      ///< expected loop count (0 = unchecked).
    int max_depth = 0;  ///< cap on halo extension (0 = uncapped).
    int tile = 1;       ///< invocations fused per epoch (1 = untiled).
  };

  /// Parses a config file. Format, one directive per line:
  ///   chain <name> [loops=<n>] [depth=<d>] [tile=<k>] [enabled=0|1]
  ///   default on|off            # CA for unlisted chains (default: off)
  ///   # comments and blank lines ignored
  static ChainConfig load(const std::string& path);
  static ChainConfig parse(std::istream& in);

  /// Programmatic registration (equivalent to a `chain` line). Raises
  /// when tile < 1.
  void enable(const std::string& name, int loops = 0, int max_depth = 0,
              int tile = 1);
  void disable(const std::string& name);
  void set_default(bool enabled) { default_enabled_ = enabled; }

  bool enabled(const std::string& name) const;
  /// 0 when the chain has no configured cap.
  int max_depth(const std::string& name) const;
  /// 0 when unchecked.
  int expected_loops(const std::string& name) const;
  /// Temporal tile: this many back-to-back structure-equal invocations
  /// of the chain run as one CA epoch (the OPS cross-invocation tiling of
  /// arXiv:1704.00693). 1 when the chain has no entry. The World builds
  /// its halo plan halo_depth x the largest enabled tile deep; a fused
  /// window that needs more, or more than the chain's depth cap, falls
  /// back loudly to one epoch per invocation.
  int tile(const std::string& name) const;

  const std::map<std::string, Entry>& entries() const { return entries_; }
  bool default_enabled() const { return default_enabled_; }

private:
  std::map<std::string, Entry> entries_;
  bool default_enabled_ = false;
};

}  // namespace op2ca::core
