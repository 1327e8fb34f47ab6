#include "op2ca/util/options.hpp"

#include <cerrno>
#include <cstdlib>

#include "op2ca/util/error.hpp"

namespace op2ca {

Options::Options(int argc, const char* const* argv,
                 std::set<std::string> known) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name, value;
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // `--name value` form when the next token is not an option and the
      // option is known to take a value; otherwise treat as boolean flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
          known.count(name) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    OP2CA_REQUIRE(known.count(name) != 0, "Unknown option --" + name);
    values_[name] = value;
  }
}

bool Options::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Options::get_string(const std::string& name,
                                const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(s.c_str(), &end, 10);
  OP2CA_REQUIRE(!s.empty() && *end == '\0',
                "Option --" + name + " is not an int: '" + s + "'");
  OP2CA_REQUIRE(errno != ERANGE,
                "Option --" + name + " is out of range: " + s);
  return v;
}

double Options::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  OP2CA_REQUIRE(!s.empty() && *end == '\0',
                "Option --" + name + " is not a double: '" + s + "'");
  OP2CA_REQUIRE(errno != ERANGE,
                "Option --" + name + " is out of range: " + s);
  return v;
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  raise("Option --" + name + " is not a boolean: " + v);
}

}  // namespace op2ca
