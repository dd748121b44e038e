// Shared loader for the CI perf-smoke gate baselines (--gate=<file>).
//
// Both gate benches (bench_micro_runtime, bench_dht_traffic) compare fresh
// measurements against a committed line-oriented JSON baseline.  The
// loader is strict and the failure modes get distinct exit codes so the CI
// workflow can tell a real perf regression apart from a broken artifact:
//
//   1  kGateFail       measured wall regression or makespan drift
//   2  kGateMissing    baseline file unreadable
//   3  kGateMalformed  point line with missing fields / non-numeric values
//   4  kGateSchema     wrong or absent schema tag, or a baseline with no
//                      points — regenerate with --wall
//
// Deliberately dependency-free (std only): bench_micro_runtime must not
// drag the CLI/metrics headers into its google-benchmark main.
#pragma once

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace o2k::bench {

inline constexpr int kGateFail = 1;
inline constexpr int kGateMissing = 2;
inline constexpr int kGateMalformed = 3;
inline constexpr int kGateSchema = 4;

/// Terminal problem with a gate baseline; carries the process exit code.
class GateBaselineError : public std::runtime_error {
 public:
  GateBaselineError(int exit_code, const std::string& what)
      : std::runtime_error(what), exit_code_(exit_code) {}
  [[nodiscard]] int exit_code() const { return exit_code_; }

 private:
  int exit_code_;
};

/// One baseline measurement point.  `app` stays empty for baselines whose
/// schema has no app axis (the dht bench).
struct GateRecord {
  std::string app;
  std::string model;
  int p = 0;
  int workers = 1;  ///< synchronization domains; 1 for schemas without the axis
  double wall_s = 0.0;
  double makespan_ns = 0.0;
};

/// Pull `"field":<number>` / `"field":"string"` out of one JSON line.  The
/// baseline is our own line-oriented output, so this narrow parse is safe.
inline bool gate_json_field(const std::string& line, const std::string& field,
                            std::string& out) {
  const std::string needle = "\"" + field + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t b = at + needle.size();
  if (b < line.size() && line[b] == '"') {
    const std::size_t e = line.find('"', b + 1);
    if (e == std::string::npos) return false;
    out = line.substr(b + 1, e - b - 1);
    return true;
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  out = line.substr(b, e - b);
  return !out.empty();
}

/// Load and validate a gate baseline.  `with_app` says whether point lines
/// must carry an "app" field.  Throws GateBaselineError (exit codes above)
/// on every failure mode; never calls std::exit.
inline std::vector<GateRecord> load_gate_baseline(const std::string& bench,
                                                  const std::string& path,
                                                  const std::string& want_schema,
                                                  bool with_app) {
  std::ifstream in(path);
  if (!in) {
    throw GateBaselineError(kGateMissing, bench + ": cannot read gate baseline " + path +
                                              " (missing file? regenerate with --wall)");
  }
  std::vector<GateRecord> out;
  std::string line, schema;
  bool have_schema = false;
  int lineno = 0;

  auto malformed = [&](const std::string& what) -> GateBaselineError {
    return {kGateMalformed,
            bench + ": baseline " + path + ":" + std::to_string(lineno) + ": " + what};
  };
  auto need_number = [&](const char* field, const std::string& tok) -> double {
    try {
      std::size_t used = 0;
      const double v = std::stod(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
      return v;
    } catch (const std::exception&) {
      throw malformed(std::string("field \"") + field + "\" value '" + tok +
                      "' is not a number");
    }
  };

  while (std::getline(in, line)) {
    ++lineno;
    std::string v;
    if (!have_schema && gate_json_field(line, "schema", v)) {
      schema = v;
      have_schema = true;
    }
    // Point lines are the ones carrying a "P" field; header and totals
    // lines are structural and skipped.
    if (line.find("\"P\":") == std::string::npos) continue;
    GateRecord r;
    if (with_app && !gate_json_field(line, "app", r.app))
      throw malformed("point line lacks the \"app\" field");
    if (!gate_json_field(line, "model", r.model))
      throw malformed("point line lacks the \"model\" field");
    if (!gate_json_field(line, "P", v)) throw malformed("point line lacks the \"P\" field");
    r.p = static_cast<int>(need_number("P", v));
    if (gate_json_field(line, "workers", v))
      r.workers = static_cast<int>(need_number("workers", v));
    if (!gate_json_field(line, "wall_s", v))
      throw malformed("point line lacks the \"wall_s\" field");
    r.wall_s = need_number("wall_s", v);
    if (gate_json_field(line, "makespan_ns", v)) r.makespan_ns = need_number("makespan_ns", v);
    out.push_back(std::move(r));
  }

  if (!have_schema || schema != want_schema) {
    throw GateBaselineError(kGateSchema,
                            bench + ": baseline " + path + " has schema '" +
                                (have_schema ? schema : "<none>") + "', this binary expects '" +
                                want_schema + "' — regenerate with --wall");
  }
  if (out.empty()) {
    throw GateBaselineError(kGateSchema, bench + ": baseline " + path +
                                             " contains no measurement points — regenerate "
                                             "with --wall");
  }
  return out;
}

}  // namespace o2k::bench
