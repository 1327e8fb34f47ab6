// Calibration-file loading for the hierarchical cost model.
//
// BENCH_calibration.json is emitted by bench/bench_calibrate.cpp and
// read back here so the analytic model (and the fig10-13 drivers, via
// --calibration) can run on measured per-tier numbers instead of the
// presets' guesses. The parser handles exactly the flat schema the
// bench emits — a hand-rolled scanner, deliberately strict: a missing
// tier or field raises instead of silently keeping a guess.
#include "op2ca/comm/cost_model.hpp"

#include <cctype>
#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>

#include "op2ca/util/error.hpp"

namespace op2ca::sim {
namespace {

/// Position just past `"key":` at or after `from`; npos when absent.
std::size_t find_key(const std::string& text, const std::string& key,
                     std::size_t from) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = text.find(quoted, from);
  if (pos == std::string::npos) return std::string::npos;
  pos = text.find(':', pos + quoted.size());
  if (pos == std::string::npos) return std::string::npos;
  return pos + 1;
}

double number_field(const std::string& text, const std::string& key,
                    std::size_t from, std::size_t until,
                    const std::string& context) {
  const std::size_t pos = find_key(text, key, from);
  OP2CA_REQUIRE(pos != std::string::npos && pos < until,
                "calibration: missing \"" + key + "\" in " + context);
  std::size_t p = pos;
  while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p])))
    ++p;
  std::size_t end = p;
  while (end < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[end])) ||
          text[end] == '+' || text[end] == '-' || text[end] == '.' ||
          text[end] == 'e' || text[end] == 'E'))
    ++end;
  OP2CA_REQUIRE(end > p, "calibration: \"" + key + "\" in " + context +
                             " is not a number");
  try {
    return std::stod(text.substr(p, end - p));
  } catch (const std::exception&) {
    raise("calibration: cannot parse \"" + key + "\" in " + context);
  }
}

/// A count field: the number must be whole and within [lo, hi], checked
/// before the cast to int.
int whole_field(const std::string& text, const std::string& key,
                std::size_t from, std::size_t until,
                const std::string& context, int lo, int hi) {
  const double v = number_field(text, key, from, until, context);
  OP2CA_REQUIRE(v == std::floor(v) && v >= lo && v <= hi,
                "calibration: \"" + key + "\" in " + context +
                    " must be a whole number in [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
  return static_cast<int>(v);
}

std::string string_field(const std::string& text, const std::string& key,
                         const std::string& context) {
  const std::size_t pos = find_key(text, key, 0);
  OP2CA_REQUIRE(pos != std::string::npos,
                "calibration: missing \"" + key + "\" in " + context);
  const std::size_t open = text.find('"', pos);
  OP2CA_REQUIRE(open != std::string::npos,
                "calibration: \"" + key + "\" is not a string");
  const std::size_t close = text.find('"', open + 1);
  OP2CA_REQUIRE(close != std::string::npos,
                "calibration: unterminated \"" + key + "\" string");
  return text.substr(open + 1, close - open - 1);
}

TierParams tier_object(const std::string& text, Tier t,
                       std::size_t tiers_at) {
  const std::string name = tier_name(t);
  const std::size_t at = find_key(text, name, tiers_at);
  OP2CA_REQUIRE(at != std::string::npos,
                "calibration: missing tier \"" + name + "\"");
  const std::size_t open = text.find('{', at);
  const std::size_t close = text.find('}', open);
  OP2CA_REQUIRE(open != std::string::npos && close != std::string::npos,
                "calibration: malformed tier \"" + name + "\" object");
  const std::string ctx = "tier \"" + name + "\"";
  TierParams p;
  p.latency_s = number_field(text, "latency_s", open, close, ctx);
  p.bandwidth_Bps = number_field(text, "bandwidth_Bps", open, close, ctx);
  p.rails = whole_field(text, "rails", open, close, ctx, 1, kMaxRails);
  OP2CA_REQUIRE(p.latency_s > 0,
                "calibration: " + ctx + " latency must be > 0");
  OP2CA_REQUIRE(p.bandwidth_Bps > 0,
                "calibration: " + ctx + " bandwidth must be > 0");
  return p;
}

}  // namespace

TierParams TierParams::from_calibration(const Calibration& cal, Tier t) {
  return cal.tier(t);
}

Calibration parse_calibration(const std::string& json_text) {
  Calibration cal;
  cal.backend = string_field(json_text, "backend", "calibration file");
  // Point-to-point sweeps need a peer: nranks >= 2.
  cal.nranks = whole_field(json_text, "nranks", 0, json_text.size(),
                           "calibration file", 2, INT_MAX);
  const std::size_t tiers_at = find_key(json_text, "tiers", 0);
  OP2CA_REQUIRE(tiers_at != std::string::npos,
                "calibration: missing \"tiers\" object");
  for (int t = 0; t < kNumTiers; ++t)
    cal.tiers[t] = tier_object(json_text, static_cast<Tier>(t), tiers_at);

  // The hierarchy sanity the CI gate also enforces: going up the machine
  // (numa -> node -> net) bandwidth cannot grow and latency cannot
  // shrink. bench_calibrate clamps its measurements to this before
  // emitting, so a violation here means a hand-edited or foreign file.
  for (int t = 1; t < kNumTiers; ++t) {
    const TierParams& lo = cal.tiers[t - 1];
    const TierParams& hi = cal.tiers[t];
    OP2CA_REQUIRE(hi.bandwidth_Bps <= lo.bandwidth_Bps,
                  std::string("calibration: bandwidth must be monotone "
                              "non-increasing up the hierarchy (") +
                      tier_name(static_cast<Tier>(t)) + " > " +
                      tier_name(static_cast<Tier>(t - 1)) + ")");
    OP2CA_REQUIRE(hi.latency_s >= lo.latency_s,
                  std::string("calibration: latency must be monotone "
                              "non-decreasing up the hierarchy (") +
                      tier_name(static_cast<Tier>(t)) + " < " +
                      tier_name(static_cast<Tier>(t - 1)) + ")");
  }
  return cal;
}

Calibration load_calibration(const std::string& path) {
  std::ifstream is(path);
  OP2CA_REQUIRE(is.good(), "calibration: cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse_calibration(ss.str());
}

void apply_calibration(const Calibration& cal, CostModel* cm) {
  OP2CA_REQUIRE(cm != nullptr, "apply_calibration: null cost model");
  cm->name += "+calibrated(" + cal.backend + ")";
  cm->numa = cal.tier(Tier::Numa);
  cm->node = cal.tier(Tier::Node);
  const TierParams& net = cal.tier(Tier::Net);
  cm->latency_s = net.latency_s;
  cm->bandwidth_Bps = net.bandwidth_Bps;
  cm->net_rails = net.rails;
}

}  // namespace op2ca::sim
