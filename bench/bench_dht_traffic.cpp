// R-D1 — DHT traffic: Chord-overlay lookups/puts under Zipf-skewed load and
// membership churn, three models.
//
// Expected shape: per-request hop counts are identical across models (the
// routing logic is shared), so the model comparison isolates pure transport
// cost — MP pays alltoallv envelopes per routing round, SHMEM its one-sided
// count negotiation, CC-SAS coherence misses on the shared mailboxes and
// store.  A second table sweeps the Zipf exponent at fixed P: the hot-set
// share of served requests climbs steeply with s (≈1% at uniform to >75% at
// s=1.2), concentrating store traffic on the hot keys' owner nodes.
//
// Modes, mirroring bench_micro_runtime:
//
//   ./bench_dht_traffic                      # result tables + CSV
//   ./bench_dht_traffic --wall --out=BENCH_dht.json
//       sweep model × P at the default worker count; every point's two
//       makespans must agree bit-exactly or the run fails — then write
//       wall/makespan baselines as line-oriented JSON (schema
//       o2k.bench_dht.v2, with the host's core count in the header).
//   ./bench_dht_traffic --gate=BENCH_dht.json
//       CI perf-smoke gate: re-run the pinned P=64 points; fail (exit 1)
//       if wall time regressed >25% or any makespan moved.  Baseline problems exit 2 (missing) / 3 (malformed JSON) /
//       4 (schema mismatch) — see bench_gate.hpp.
#include <chrono>
#include <fstream>
#include <thread>

#include "apps/dht_app.hpp"
#include "bench_gate.hpp"
#include "bench_util.hpp"

using namespace o2k;

namespace {

/// The fixed workload of the wall/gate baselines (flag-independent so the
/// committed file always matches what CI re-runs): smoke-scale traffic with
/// several churn events.
apps::DhtConfig baseline_cfg() {
  apps::DhtConfig cfg;
  cfg.requests = 120'000;
  cfg.churn_every = 15'000;
  return cfg;
}

struct WallPoint {
  std::string model;
  int p = 0;
  double wall_s = 0.0;       ///< best of two runs
  double makespan_ns = 0.0;  ///< virtual time (identical across runs)
};

/// One timed execution of the baseline workload; returns (wall_s, makespan).
std::pair<double, double> timed_run(rt::Machine& machine, apps::Model model, int p) {
  const auto t0 = std::chrono::steady_clock::now();
  const double makespan = apps::run_dht(model, machine, p, baseline_cfg()).run.makespan_ns;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return {wall, makespan};
}

int run_wall_mode(const std::string& out_path) {
  rt::Machine machine;
  std::vector<WallPoint> points;
  bool ok = true;
  for (const auto model : bench::all_models()) {
    for (int p : {1, 2, 4, 8, 16, 32, 64}) {
      WallPoint pt;
      pt.model = apps::model_slug(model);
      pt.p = p;
      const auto [w1, mk1] = timed_run(machine, model, p);
      const auto [w2, mk2] = timed_run(machine, model, p);
      pt.wall_s = std::min(w1, w2);
      pt.makespan_ns = mk1;
      if (mk1 != mk2) {
        std::fprintf(stderr, "ERROR: makespan drift at dht|%s|%d (%.17g / %.17g)\n",
                     pt.model.c_str(), p, mk1, mk2);
        ok = false;
      }
      points.push_back(pt);
      std::fprintf(stderr, "  dht %-6s P=%-3d  %.3fs\n", pt.model.c_str(), pt.p, pt.wall_s);
    }
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_dht_traffic: cannot write " << out_path << "\n";
    return 2;
  }
  out << "{\"schema\":\"o2k.bench_dht.v2\",\"host_cores\":" << std::thread::hardware_concurrency()
      << ",\"points\":[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const WallPoint& pt = points[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"model\":\"%s\",\"P\":%d,\"wall_s\":%.6f,\"makespan_ns\":%.17g}%s\n",
                  pt.model.c_str(), pt.p, pt.wall_s, pt.makespan_ns,
                  i + 1 < points.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "FAILED: unexpected makespan drift (see above)\n");
    return 1;
  }
  return 0;
}

/// CI perf-smoke gate: pinned P=64 points, 25% wall budget, makespans
/// pinned bit-exactly against the committed file.
int run_gate_mode(const std::string& baseline_path) {
  const auto baseline = bench::load_gate_baseline("bench_dht_traffic", baseline_path,
                                                  "o2k.bench_dht.v2", /*with_app=*/false);
  constexpr double kBudget = 1.25;
  rt::Machine machine;
  bool ok = true;
  for (const auto model : bench::all_models()) {
    const std::string slug = apps::model_slug(model);
    const bench::GateRecord* base = nullptr;
    for (const auto& b : baseline)
      if (b.model == slug && b.p == 64) base = &b;
    if (base == nullptr) {
      throw bench::GateBaselineError(bench::kGateSchema,
                                     "bench_dht_traffic: pinned point dht|" + slug +
                                         "|64 missing from " + baseline_path +
                                         " — regenerate with --wall");
    }
    const auto [w1, mk1] = timed_run(machine, model, 64);
    const auto [w2, mk2] = timed_run(machine, model, 64);
    const double wall = std::min(w1, w2);
    const bool slow = wall > base->wall_s * kBudget;
    const bool drifted = (mk1 != mk2 || mk1 != base->makespan_ns);
    std::fprintf(stderr, "  gate dht %-6s P=64  wall %.3fs (budget %.3fs)%s%s\n", slug.c_str(),
                 wall, base->wall_s * kBudget, slow ? "  WALL REGRESSION" : "",
                 drifted ? "  MAKESPAN DRIFT" : "");
    ok = ok && !slow && !drifted;
  }
  if (!ok) {
    std::fprintf(stderr, "FAILED: dht perf-smoke gate (baseline %s)\n", baseline_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "dht perf-smoke gate passed (baseline %s)\n", baseline_path.c_str());
  return 0;
}

}  // namespace

int bench_main(int argc, char** argv) {
  auto flags = bench::common_flags();
  flags["requests"] = "client requests per run (default 120000; --full: 1000000)";
  flags["zipf-s"] = "key-popularity skew exponent for the P sweep (default 0.9)";
  flags["wall"] = "write wall/makespan baselines instead of result tables";
  flags["out"] = "baseline output path for --wall (default BENCH_dht.json)";
  flags["gate"] = "CI gate mode: compare against this committed baseline";
  Cli cli(argc, argv, flags);
  if (cli.has("help")) {
    std::cout << cli.help();
    return 0;
  }
  if (cli.has("gate")) {
    try {
      return run_gate_mode(cli.get("gate", "BENCH_dht.json"));
    } catch (const bench::GateBaselineError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return e.exit_code();
    }
  }
  if (cli.get_bool("wall", false)) return run_wall_mode(cli.get("out", "BENCH_dht.json"));

  apps::DhtConfig cfg = baseline_cfg();
  cfg.requests =
      static_cast<std::uint64_t>(cli.get_int("requests", cli.get_bool("full", false)
                                                             ? 1'000'000
                                                             : static_cast<std::int64_t>(
                                                                   cfg.requests)));
  cfg.churn_every = std::max<std::uint64_t>(1, cfg.requests / 8);
  cfg.zipf_s = cli.get_double("zipf-s", cfg.zipf_s);
  const auto procs = cli.get_int_list("procs", bench::kDefaultProcs);

  rt::Machine machine;

  // Table 1: time & speedup vs P at fixed skew.  Hops per request is the
  // same for every model by construction; the transport makes the time.
  bench::Emitter out("bench_dht_traffic", cli,
                     "R-D1: DHT traffic (" + std::to_string(cfg.requests) + " requests, zipf " +
                         TextTable::num(cfg.zipf_s) + ", churn every " +
                         std::to_string(cfg.churn_every) + ") — time & speedup vs P");
  out.header({"model", "P", "time", "speedup", "hops/req", "hot%", "repair_keys"});
  for (const auto model : bench::all_models()) {
    double t1 = 0.0;
    for (int p : procs) {
      const auto rep = apps::run_dht(model, machine, p, cfg);
      if (p == procs.front()) t1 = rep.run.makespan_ns;
      const double served = rep.check("served");
      out.row({apps::model_name(model), std::to_string(p),
               TextTable::time_ns(rep.run.makespan_ns), TextTable::num(t1 / rep.run.makespan_ns),
               TextTable::num(rep.check("hops") / served),
               TextTable::num(100.0 * rep.check("hot_hits") / served),
               std::to_string(rep.run.counter("dht.repair_keys"))});
    }
  }
  out.print();

  // Table 2: the Zipf sweep at fixed P — adaptivity induced by traffic.
  // The hot-set share of serves climbs with the skew; the serve-phase
  // imbalance (max PE time / mean) tracks the per-round routing fan-in.
  const int zp = 8;
  TextTable zt("R-D1b: skew sweep at P=" + std::to_string(zp) +
               " — hot-key concentration and serve imbalance");
  zt.header({"model", "zipf s", "hot%", "serve imbal", "time"});
  for (const auto model : bench::all_models()) {
    for (const double s : {0.0, 0.6, 0.9, 1.2}) {
      apps::DhtConfig zcfg = cfg;
      zcfg.zipf_s = s;
      const auto rep = apps::run_dht(model, machine, zp, zcfg);
      const auto it = rep.run.phases.find("serve");
      const double imbal = it == rep.run.phases.end() ? 0.0 : it->second.imbalance(zp);
      zt.row({apps::model_name(model), TextTable::num(s),
              TextTable::num(100.0 * rep.check("hot_hits") / rep.check("served")),
              TextTable::num(imbal), TextTable::time_ns(rep.run.makespan_ns)});
    }
  }
  zt.print(std::cout);
  std::cout << "\nShape check: hops/req is model-independent (shared routing logic);\n"
               "the hot-set share of serves climbs steeply with the Zipf exponent as\n"
               "popularity concentrates on a few keys.\n";
  return 0;
}

int main(int argc, char** argv) { return o2k::bench::guard(bench_main, argc, argv); }
