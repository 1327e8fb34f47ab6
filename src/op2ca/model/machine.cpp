// Machine presets, and the calibration file that can replace a preset's
// wire.
//
// BENCH_calibration.json is emitted by bench/bench_calibrate.cpp and
// read back here so the fig10-13 drivers (--calibration) can run on the
// measured wire instead of the presets' guesses. The parser handles
// exactly the flat schema the bench emits — a hand-rolled scanner,
// deliberately strict: a missing object or field raises instead of
// silently keeping a guess.
#include "op2ca/model/machine.hpp"

#include <cctype>
#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>

#include "op2ca/util/error.hpp"

namespace op2ca::model {

Machine archer2() {
  Machine m;
  m.net.latency_s = 2.0e-6;        // Slingshot MPI pingpong class.
  m.net.bandwidth_Bps = 12.5e9;    // 100 Gb/s per direction per NIC.
  m.net.pack_bandwidth_Bps = 35e9; // streaming chunk-memcpy class.
  // Slingshot is provisioned 2 x 100 Gb/s per node: two rails a large
  // message can spread over in the model.
  m.net.rails = 2;
  m.ranks_per_node = 128;          // 2 x 64 cores, 1 MPI rank per core.
  // An EPYC 7742 core running the production build (AVX2-vectorized
  // flux kernels, -O3) retires these low-arithmetic-intensity kernels
  // ~3x faster than this host's scalar reference build, which is what
  // the calibration measures.
  m.compute_scale = 0.3;
  return m;
}

Machine cirrus_gpu() {
  Machine m;
  m.net.latency_s = 1.5e-6;        // FDR InfiniBand.
  m.net.bandwidth_Bps = 6.8e9;     // 54.5 Gb/s, single rail.
  m.net.pack_bandwidth_Bps = 25e9;
  m.ranks_per_node = 4;            // 1 MPI rank per GPU.
  // Staged halo path: D2H copy + H2D copy + kernel-launch overheads per
  // exchange, folded into Lambda (paper Section 3.3).
  m.extra_latency_s = 3.0e-5;
  // One V100 rank does the work of ~60 EPYC cores on memory-bound CFD
  // kernels (900 GB/s HBM2 vs ~15 GB/s per-core share of DDR4), i.e.
  // 0.3/60 of the host-calibrated scalar cost.
  m.compute_scale = 0.3 / 60.0;
  return m;
}

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

}  // namespace

Calibration parse_calibration(const std::string& json_text) {
  Calibration cal;
  cal.backend = string_field(json_text, "backend", "calibration file");
  // Point-to-point sweeps need a peer: nranks >= 2.
  cal.nranks = whole_field(json_text, "nranks", 0, json_text.size(),
                           "calibration file", 2, INT_MAX);
  const std::size_t at = find_key(json_text, "wire", 0);
  OP2CA_REQUIRE(at != std::string::npos,
                "calibration: missing \"wire\" object");
  const std::size_t open = json_text.find('{', at);
  const std::size_t close = json_text.find('}', open);
  OP2CA_REQUIRE(open != std::string::npos && close != std::string::npos,
                "calibration: malformed \"wire\" object");
  const std::string ctx = "\"wire\"";
  cal.latency_s = number_field(json_text, "latency_s", open, close, ctx);
  cal.bandwidth_Bps =
      number_field(json_text, "bandwidth_Bps", open, close, ctx);
  cal.rails = whole_field(json_text, "rails", open, close, ctx, 1, kMaxRails);
  OP2CA_REQUIRE(cal.latency_s > 0,
                "calibration: " + ctx + " latency must be > 0");
  OP2CA_REQUIRE(cal.bandwidth_Bps > 0,
                "calibration: " + ctx + " bandwidth must be > 0");
  return cal;
}

Calibration load_calibration(const std::string& path) {
  std::ifstream is(path);
  OP2CA_REQUIRE(is.good(), "calibration: cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse_calibration(ss.str());
}

void apply_calibration(const Calibration& cal, Machine* m) {
  OP2CA_REQUIRE(m != nullptr, "apply_calibration: null machine");
  m->net.latency_s = cal.latency_s;
  m->net.bandwidth_Bps = cal.bandwidth_Bps;
  m->net.rails = cal.rails;
}

}  // namespace op2ca::model
