// o2kbench — host benchmark driver for the nine o2k applications.
//
//   o2kbench --mode run   --workload NAME --seed N
//   o2kbench --mode trace --workload NAME --seed N --spans FILE
//
// `run` constructs the machine, makes one untimed warm-up pass (setup), then
// times kTimedPasses passes.  A pass runs the workload's application under
// MP, SHMEM and CC-SAS, one after another, on kWorkers pinned workers.
// `trace` makes untraced, sampled and traced passes plus the per-layer
// micro-timings and writes its spans to FILE at exit.  Both print one JSON
// object on stdout; perfbench/run.py aggregates, checks and reports.  See
// README.md in this directory.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace o2kbench {

using o2k::apps::AppReport;
using o2k::apps::Model;

/// Pinned host workers (synchronization domains) of every run.  Fixed: the
/// benchmark keeps the MP slowdown at W = 4 visible (README.md).
constexpr int kWorkers = 4;

/// Timed passes per `run` process.  Fixed, so that every process follows the
/// same schedule and its per-pass RSS marks compare across runs.
constexpr int kTimedPasses = 2;

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "nbody-p64") {
    w.app = App::kNbody;
    w.P = 64;
    w.nbody.n = 16384;
    w.nbody.steps = 3;
    w.nbody.seed = seed;
  } else if (name == "mesh-p64") {
    w.app = App::kMesh;
    w.P = 64;
    w.mesh.nx = w.mesh.ny = w.mesh.nz = 11;
    w.mesh.phases = 4;
  } else if (name == "dht-churn-p256") {
    w.app = App::kDht;
    w.P = 256;
    w.dht.requests = 30'000;
    w.dht.churn_every = 7'500;
    w.dht.keys = 8192;
    w.dht.seed = seed;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

AppReport run_model(const Workload& w, Model m, o2k::rt::Machine& machine) {
  switch (w.app) {
    case App::kNbody:
      return o2k::apps::run_nbody(m, machine, w.P, w.nbody);
    case App::kMesh:
      return o2k::apps::run_mesh(m, machine, w.P, w.mesh);
    case App::kDht:
      return o2k::apps::run_dht(m, machine, w.P, w.dht);
  }
  throw std::logic_error("unreachable app");
}

namespace {

std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(u));
  return buf;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\r') ? ' ' : c;
  }
  return out + "\"";
}

/// One model run of one pass: what it produced and what it cost.
struct ModelRun {
  int pass = 0;
  Model model = Model::kMp;
  bool ok = false;
  std::string error;
  AppReport rep;
  double wall_s = 0.0;
  Usage before, after;
  std::uint32_t span = 0;  ///< the run's span id (= run id), 0 without spans
};

std::string run_json(const ModelRun& r) {
  std::ostringstream o;
  o << "{\"pass\":" << r.pass << ",\"model\":\"" << o2k::apps::model_slug(r.model)
    << "\",\"ok\":" << (r.ok ? "true" : "false") << ",\"error\":" << quote(r.error);
  if (r.ok) {
    o << ",\"makespan_ns\":\"" << bits(r.rep.run.makespan_ns) << "\",\"checks\":{";
    bool first = true;
    for (const auto& [k, v] : r.rep.checks) {
      o << (first ? "" : ",") << quote(k) << ":\"" << bits(v) << "\"";
      first = false;
    }
    o << "}";
  }
  o << "}";
  return o.str();
}

/// Host cores this process may run on, 0 when the kernel does not say.
int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

/// The host and configuration this process measured on.
std::string provenance_json(const Workload& w, int workers, std::uint64_t seed) {
  std::ostringstream o;
  o << "{\"host_cores\":" << host_cores() << ",\"workers\":" << workers << ",\"P\":" << w.P
    << ",\"seed\":" << seed << ",\"compiler\":" << quote(std::string("g++ ") + __VERSION__)
    << ",\"build_type\":" << quote(O2K_BENCH_BUILD_TYPE) << ",\"inputs\":{";
  switch (w.app) {
    case App::kNbody:
      o << "\"app\":\"nbody\",\"n\":" << w.nbody.n << ",\"steps\":" << w.nbody.steps;
      break;
    case App::kMesh:
      o << "\"app\":\"mesh\",\"box\":" << w.mesh.nx << ",\"phases\":" << w.mesh.phases;
      break;
    case App::kDht:
      o << "\"app\":\"dht\",\"nodes\":" << w.dht.nodes_per_pe * w.P << ",\"keys\":" << w.dht.keys
        << ",\"requests\":" << w.dht.requests << ",\"churn_every\":" << w.dht.churn_every;
      break;
  }
  o << "}}";
  return o.str();
}

/// One model run.  Exceptions are recorded, never propagated, so a failing
/// model counts in fail_share and the others still run.  With a SpanLog the
/// run gets a span, whose id doubles as the run id.
ModelRun run_one(const Workload& w, Model m, o2k::rt::Machine& machine, int pass,
                 SpanLog* spans, std::uint32_t parent) {
  ModelRun r;
  r.pass = pass;
  r.model = m;
  r.span = spans ? spans->open(std::string("run.") + o2k::apps::model_slug(m), parent, true) : 0;
  set_stage(nullptr, o2k::apps::model_slug(m));
  r.before = usage_now();
  const double s0 = now_s();
  try {
    r.rep = run_model(w, m, machine);
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_s = now_s() - s0;
  r.after = usage_now();
  if (spans) spans->close(r.span);
  return r;
}

/// A pass: every model once.  `around(model, run)` may wrap each model run
/// with observers; `run()` returns the finished run.
struct Pass {
  std::vector<ModelRun> runs;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

using Around = std::function<void(Model, const std::function<const ModelRun&()>&)>;

Pass run_pass(const Workload& w, o2k::rt::Machine& machine, int index, SpanLog* spans,
              const char* label, const Around& around = {}) {
  Pass p;
  const std::uint32_t pass_span = spans ? spans->open(label, 0) : 0;
  set_stage(label, "");
  const Usage u0 = usage_now();
  const double t0 = now_s();
  for (const Model m : kModels) {
    const std::function<const ModelRun&()> run = [&]() -> const ModelRun& {
      return p.runs.emplace_back(run_one(w, m, machine, index, spans, pass_span));
    };
    if (around) {
      around(m, run);
    } else {
      run();
    }
  }
  p.wall_s = now_s() - t0;
  p.cpu_s = usage_now().cpu_s - u0.cpu_s;
  if (spans) spans->close(pass_span);
  return p;
}

void emit_runs(std::ostream& o, const std::vector<Pass>& passes) {
  o << "\"runs\":[";
  bool first = true;
  for (const Pass& p : passes) {
    for (const ModelRun& r : p.runs) {
      o << (first ? "" : ",") << run_json(r);
      first = false;
    }
  }
  o << "]";
}

int mode_run(const Workload& w, std::uint64_t seed) {
  const double t0 = now_s();
  o2k::rt::Machine machine(o2k::origin::MachineParams::origin2000_scaled(w.P));
  machine.set_workers(kWorkers);
  std::vector<Pass> passes;
  passes.push_back(run_pass(w, machine, 0, nullptr, "warmup"));
  const double setup_s = now_s() - t0;
  // peak_rss_mb takes the RSS high-water mark after set-up, the first full
  // pass.  From the next pass on, memory freed by earlier passes but kept by
  // the allocator makes the mark grow by amounts that differ from process to
  // process (README.md, "Known host defects"); the marks after each timed
  // pass show that growth.
  const long setup_hwm_kb = peak_rss_kb();
  std::vector<long> hwm_kb;
  for (int i = 1; i <= kTimedPasses; ++i) {
    passes.push_back(run_pass(w, machine, i, nullptr, "pass"));
    hwm_kb.push_back(peak_rss_kb());
  }

  std::ostringstream o;
  o << "{\"mode\":\"run\",\"provenance\":" << provenance_json(w, machine.workers(), seed)
    << ",\"setup_s\":" << num(setup_s) << ",\"setup_hwm_kb\":" << setup_hwm_kb
    << ",\"passes\":[";
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    o << (i == 1 ? "" : ",") << "{\"wall_s\":" << num(p.wall_s) << ",\"cpu_s\":" << num(p.cpu_s)
      << ",\"hwm_kb\":" << hwm_kb[i - 1];
    for (const ModelRun& r : p.runs) {
      o << ",\"" << o2k::apps::model_slug(r.model) << "\":" << num(r.wall_s);
    }
    o << "}";
  }
  o << "],";
  emit_runs(o, passes);
  o << "}\n";
  std::cout << o.str() << std::flush;
  return 0;
}

/// Runtime counters every workload reports; one nobody incremented is absent
/// from RunResult and reads 0.  Other counters are reported when present.
const char* const kCounters[] = {"mp.msgs",          "mp.bytes",
                                 "mp.recv_msgs",     "shmem.puts",
                                 "shmem.gets",       "shmem.bytes",
                                 "sas.read_misses",  "sas.write_misses",
                                 "sas.remote_misses", "sas.ownership_transfers"};

int mode_trace(const Workload& w, std::uint64_t seed, const std::string& spans_path) {
  SpanLog spans;
  o2k::rt::Machine machine(o2k::origin::MachineParams::origin2000_scaled(w.P));
  machine.set_workers(kWorkers);
  std::map<std::string, double> m;
  std::vector<Pass> passes;

  passes.push_back(run_pass(w, machine, 0, &spans, "pass.warmup"));
  // A: untraced — counters, context switches, and the reference wall time.
  passes.push_back(run_pass(w, machine, 1, &spans, "pass.untraced"));
  const double untraced_wall_s = passes.back().wall_s;
  for (const char* c : kCounters) m[c] = 0.0;
  for (const ModelRun& r : passes.back().runs) {
    const std::string slug = o2k::apps::model_slug(r.model);
    for (const auto& [name, v] : r.rep.run.counters) {
      const auto dot = name.find('.');
      const std::string layer = name.substr(0, dot);
      if (layer == slug) {
        m[name] = static_cast<double>(v);  // mp.*, shmem.*, sas.* from their own model
      } else if (layer == "nbody" || layer == "mesh" || layer == "plum" || layer == "dht") {
        m[name] += static_cast<double>(v);  // app counters: summed over the pass
      }
    }
    if (r.model == Model::kMp) {
      m["exec.vol_csw"] = static_cast<double>(r.after.vol_csw - r.before.vol_csw);
      m["exec.invol_csw"] = static_cast<double>(r.after.invol_csw - r.before.invol_csw);
    }
  }

  // B: per-thread CPU of the MP run, sampled from /proc.
  passes.push_back(run_pass(w, machine, 2, &spans, "pass.sampled",
                            [&](Model model, const std::function<const ModelRun&()>& run) {
    if (model != Model::kMp) {
      run();
      return;
    }
    TaskSampler sampler;
    const double wall = run().wall_s;
    double sum = 0.0, mx = 0.0;
    for (const double x : sampler.stop()) {
      sum += x;
      mx = std::max(mx, x);
    }
    const int W = machine.workers();
    m["exec.worker_busy_max_s"] = mx;
    m["exec.worker_busy_mean_s"] = sum / W;
    m["exec.idle_share"] = 1.0 - sum / (W * wall);
  }));

  // C: traced — the observing sink on every model run.
  std::uint64_t events = 0, barriers = 0;
  passes.push_back(run_pass(w, machine, 3, &spans, "pass.traced",
                            [&](Model model, const std::function<const ModelRun&()>& run) {
    PhaseSink sink(w.P);
    machine.set_sink(&sink);
    const std::uint32_t id = run().span;
    machine.set_sink(nullptr);
    const std::string slug = o2k::apps::model_slug(model);
    for (const auto& ph : sink.phase_spans()) {
      spans.add("phase." + ph.name, id, id, ph.start_s, ph.end_s);
      m["phase." + slug + "." + ph.name + ".host_s"] += ph.end_s - ph.start_s;
    }
    events += sink.events();
    barriers += sink.barrier_events();
  }));
  m["metrics.sink_events"] = static_cast<double>(events);
  m["rt.barriers"] = static_cast<double>(barriers) / w.P;
  m["metrics.trace_wall_ratio"] = passes.back().wall_s / untraced_wall_s;

  const std::uint32_t micro = spans.open("micro", 0);
  for (const auto& [k, v] : micro_timings(w, seed, machine, spans, micro)) m[k] = v;
  spans.close(micro);

  std::ostringstream o;
  o << "{\"mode\":\"trace\",\"provenance\":" << provenance_json(w, machine.workers(), seed)
    << ",\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    o << (first ? "" : ",") << quote(k) << ":" << num(v);
    first = false;
  }
  o << "},";
  emit_runs(o, passes);
  o << "}\n";
  const bool wrote = spans.write(spans_path);
  std::cout << o.str() << std::flush;
  if (!wrote) {
    std::cerr << "o2kbench: cannot write spans to " << spans_path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace o2kbench

int main(int argc, char** argv) {
  std::map<std::string, std::string> args{{"--mode", ""},
                                          {"--workload", ""},
                                          {"--seed", "20000101"},
                                          {"--spans", "spans.json"}};
  if (argc % 2 == 0) {
    std::cerr << "o2kbench: flags come in --name value pairs\n";
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const auto it = args.find(argv[i]);
    if (it == args.end()) {
      std::cerr << "o2kbench: unknown flag " << argv[i] << "\n";
      return 2;
    }
    it->second = argv[i + 1];
  }
  try {
    const std::string mode = args["--mode"];
    const std::uint64_t seed = std::stoull(args["--seed"]);
    const auto w = o2kbench::make_workload(args["--workload"], seed);

    const int cores = o2kbench::host_cores();
    if (cores < o2kbench::kWorkers) {
      std::cerr << "o2kbench: " << o2kbench::kWorkers << " pinned workers need as many host "
                << "cores, this process may use " << cores << "\n";
      return 3;
    }
    o2kbench::install_stage_reporter();
    if (mode == "run") return o2kbench::mode_run(w, seed);
    if (mode == "trace") return o2kbench::mode_trace(w, seed, args["--spans"]);
    std::cerr << "o2kbench: --mode must be run or trace\n";
  } catch (const std::exception& e) {
    std::cerr << "o2kbench: " << e.what() << "\n";
  }
  return 2;
}
