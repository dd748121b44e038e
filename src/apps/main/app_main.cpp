#include "apps/main/app_main.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "apps/dht_app.hpp"
#include "apps/mesh_app.hpp"
#include "apps/nbody_app.hpp"
#include "campaign/snapshot.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "metrics/metrics.hpp"
#include "sanitize/sanitize.hpp"

namespace o2k::apps::appmain {

namespace {

/// Snapshot flags shared by every app binary.  `label` is the app's marker
/// ("step" for nbody, "phase" for mesh, "setup" for dht);
/// `--checkpoint-at` picks the 1-based marker occurrence.
struct CheckpointCli {
  std::string app_slug;
  std::string write_path;
  std::string restore_path;
  std::string label;
  int occurrence = 1;
};

void add_checkpoint_flags(std::map<std::string, std::string>& flags, const char* marker) {
  flags["checkpoint"] =
      std::string("write a deterministic snapshot at the '") + marker + "' marker to <file>";
  flags["restore"] = "verified replay against a snapshot file (exit 13 on divergence)";
  flags["checkpoint-at"] = "1-based marker occurrence for --checkpoint (default 1)";
}

void add_workers_flag(std::map<std::string, std::string>& flags) {
  flags["workers"] =
      "host synchronization domains (default: O2K_WORKERS, else min(nodes, hardware threads))";
}

/// The simulated machine for `--p`: the Origin2000 parameters, scaled past
/// their 64-PE width when a run asks for more (identical for p <= 64).
rt::Machine make_machine(int p) {
  if (p < 1) throw CliError("--p expects a processor count >= 1");
  return rt::Machine(origin::MachineParams::origin2000_scaled(std::max(64, p)));
}

/// Resolve --workers against the simulated PE count.  The flag overrides
/// O2K_WORKERS; rt::Machine clamps domains to the node count, but asking for
/// more domains than PEs is a usage error worth failing fast on.
void apply_workers(const Cli& cli, rt::Machine& machine, int p) {
  if (!cli.has("workers")) return;
  const int w = static_cast<int>(cli.get_int("workers", 1));
  if (w < 1) throw CliError("--workers expects a count >= 1");
  if (w > p)
    throw CliError("--workers cannot exceed --p (more synchronization domains than PEs)");
  machine.set_workers(w);
}

CheckpointCli checkpoint_cli(const Cli& cli, const char* app_slug, const char* marker) {
  CheckpointCli cp;
  cp.app_slug = app_slug;
  cp.write_path = cli.get("checkpoint", "");
  cp.restore_path = cli.get("restore", "");
  cp.label = marker;
  cp.occurrence = static_cast<int>(cli.get_int("checkpoint-at", 1));
  if (!cp.write_path.empty() && !cp.restore_path.empty())
    throw CliError("--checkpoint and --restore are mutually exclusive");
  if (cp.occurrence < 1) throw CliError("--checkpoint-at expects an occurrence >= 1");
  return cp;
}

/// A flag parsed into an unsigned config field: negative values would wrap
/// to huge counts, so they are usage errors.
std::int64_t count_flag(const Cli& cli, const char* name, std::int64_t fallback) {
  const std::int64_t v = cli.get_int(name, fallback);
  if (v < 0) throw CliError(std::string("--") + name + " expects a count >= 0");
  return v;
}

/// Shared outer wrapper of the app mains: CLI/usage errors exit 2 next to
/// the help text, a config the app rejects (std::invalid_argument from
/// O2K_REQUIRE, thrown before or during the run) exits 2 with its one-line
/// reason, snapshot IO/config problems exit 12, a diverging verified
/// replay 13.
template <typename Body>
int main_guard(int argc, char** argv, const std::map<std::string, std::string>& flags,
               Body body) {
  try {
    Cli cli(argc, argv, flags);
    if (cli.has("help")) {
      std::cout << cli.help();
      return 0;
    }
    return body(cli);
  } catch (const CliError& e) {
    std::cerr << argv[0] << ": " << e.what() << '\n';
    const char* const argv0[] = {argv[0]};
    std::cerr << Cli(1, argv0, flags).help();
    return campaign::kExitUsage;
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": invalid configuration: " << e.what() << '\n';
    return campaign::kExitUsage;
  } catch (const campaign::SnapshotMismatch& e) {
    std::cerr << argv[0] << ": " << e.what() << '\n';
    return campaign::kExitSnapshotMismatch;
  } catch (const campaign::SnapshotError& e) {
    std::cerr << argv[0] << ": " << e.what() << '\n';
    return campaign::kExitSnapshotError;
  }
}

/// --sanitize[=off|report|abort]; a bare --sanitize means report.  Without
/// the flag, O2K_SANITIZE decides (so scripted sweeps need no per-app args).
sanitize::Mode sanitize_mode(const Cli& cli) {
  if (!cli.has("sanitize")) return sanitize::env_mode();
  const std::string v = cli.get("sanitize", "report");
  return v == "true" ? sanitize::Mode::kReport : sanitize::mode_from_string(v);
}

/// Run under an attached metrics session, print the standard summary.
int run_and_report(rt::Machine& machine, int nprocs, const std::string& app, Model model,
                   const metrics::Options& mopts, sanitize::Mode smode, const CheckpointCli& cp,
                   const std::function<AppReport(rt::Machine&)>& run) {
  metrics::Session session(machine, nprocs, mopts);
  // Arm the snapshot marker before the run; finish() after it either
  // writes the file or proves the replay reached the recorded state.
  std::optional<campaign::ScopedCheckpoint> scoped;
  const bool snap_write = !cp.write_path.empty();
  if (snap_write || !cp.restore_path.empty()) {
    campaign::SnapshotMeta meta;
    meta.app = cp.app_slug;
    meta.model = model_slug(model);
    meta.nprocs = nprocs;
    meta.label = cp.label;
    meta.occurrence = cp.occurrence;
    scoped.emplace(machine,
                   snap_write ? campaign::ScopedCheckpoint::Mode::kWrite
                              : campaign::ScopedCheckpoint::Mode::kVerify,
                   snap_write ? cp.write_path : cp.restore_path, meta);
  }
  // Install the sanitizer before `run` constructs any substrate World so the
  // begin_*_world hooks see it; tear the scope down before finish() so the
  // report carries the complete finding set (MP finalize checks fire in the
  // World destructor, inside `run`).
  std::optional<sanitize::Sanitizer> san;
  std::optional<sanitize::Scope> san_scope;
  if (smode != sanitize::Mode::kOff) {
    san.emplace(smode);
    san_scope.emplace(&*san);
  }
  // Host wall-clock for the report's host_seconds meta; never feeds
  // simulated state.  NOLINTNEXTLINE(o2k-nondeterminism)
  const auto host_start = std::chrono::steady_clock::now();
  const AppReport rep = run(machine);
  if (scoped) {
    scoped->finish();
    if (snap_write) {
      std::cout << "wrote snapshot: " << cp.write_path << '\n';
    } else {
      std::cout << "restore verified: replay matched " << cp.restore_path
                << " bit-for-bit at marker '" << cp.label << "'\n";
    }
  }
  const std::chrono::duration<double> host =
      std::chrono::steady_clock::now() - host_start;  // NOLINT(o2k-nondeterminism)
  char host_s[32];
  std::snprintf(host_s, sizeof host_s, "%.3f", host.count());
  session.add_meta("host_seconds", host_s);
  if (san) {
    san_scope.reset();
    metrics::SanitizeReport sr;
    sr.enabled = true;
    sr.mode = sanitize::mode_name(san->mode());
    const sanitize::Stats st = san->stats();
    sr.sas_accesses = st.sas_accesses;
    sr.shmem_accesses = st.shmem_accesses;
    sr.mp_recvs = st.mp_recvs;
    sr.sync_ops = st.sync_ops;
    sr.dropped = st.dropped;
    for (const auto& f : san->findings()) {
      metrics::SanitizeFinding mf;
      mf.kind = f.kind;
      mf.model = f.model;
      mf.object = f.object;
      mf.phase = f.phase;
      mf.pe_a = f.pe_a;
      mf.pe_b = f.pe_b;
      mf.t_ns = f.t_ns;
      mf.count = f.count;
      mf.detail = f.detail;
      sr.findings.push_back(std::move(mf));
    }
    session.set_sanitize(std::move(sr));
  }
  const metrics::RunReport report = session.finish(rep.run, app, model_name(model));

  TextTable t(app + " / " + model_name(model) + " on " + std::to_string(nprocs) +
              " simulated PEs  (makespan " + TextTable::time_ns(report.makespan_ns) + ")");
  t.header({"phase", "max", "avg", "min", "imbalance", "pes"});
  for (const auto& p : report.phases) {
    t.row({p.name, TextTable::time_ns(p.max_ns), TextTable::time_ns(p.avg_ns),
           TextTable::time_ns(p.min_ns), TextTable::num(p.imbalance), std::to_string(p.pes)});
  }
  t.print(std::cout);

  std::cout << "\ncomm: " << TextTable::bytes(static_cast<double>(report.comm_bytes)) << " in "
            << report.comm_msgs << " transfers\n";
  if (report.sanitize.enabled) {
    const auto& sz = report.sanitize;
    std::cout << "sanitize (" << sz.mode << "): " << sz.findings.size() << " finding(s); checked "
              << sz.sas_accesses << " sas, " << sz.shmem_accesses << " shmem, " << sz.mp_recvs
              << " recv ops across " << sz.sync_ops << " sync edges";
    if (sz.dropped > 0) std::cout << " (" << sz.dropped << " shadow records dropped)";
    std::cout << '\n';
  }
  if (report.trace_events > 0) {
    std::cout << "trace: " << report.trace_events << " events recorded, "
              << report.trace_dropped << " dropped by ring bound\n";
  }
  for (const auto& [k, v] : rep.checks) std::cout << "check " << k << " = " << v << '\n';
  if (!mopts.trace_path.empty()) std::cout << "wrote trace:  " << mopts.trace_path << '\n';
  if (!mopts.comm_path.empty()) std::cout << "wrote comm:   " << mopts.comm_path << '\n';
  if (!mopts.report_path.empty()) std::cout << "wrote report: " << mopts.report_path << '\n';
  return 0;
}

}  // namespace

int nbody_main(int argc, char** argv, Model model) {
  std::map<std::string, std::string> flags{
      {"p", "simulated processor count (default 8)"},
      {"n", "number of bodies (default 4096)"},
      {"steps", "leapfrog steps (default 2)"},
      {"theta", "opening criterion (default 0.7)"},
      {"seed", "RNG seed"},
      {"rebalance-every", "rebalance cadence in steps, 0 = never (default 1)"},
      {"uniform-sphere", "use the less-adaptive uniform initial condition"},
      {"sanitize", "race/usage checking: off|report|abort (bare flag = report)"},
  };
  add_workers_flag(flags);
  metrics::add_cli_flags(flags);
  add_checkpoint_flags(flags, "step");
  return main_guard(argc, argv, flags, [&](const Cli& cli) {
    NbodyConfig cfg;
    cfg.n = static_cast<std::size_t>(count_flag(cli, "n", static_cast<std::int64_t>(cfg.n)));
    cfg.steps = static_cast<int>(cli.get_int("steps", cfg.steps));
    cfg.theta = cli.get_double("theta", cfg.theta);
    cfg.seed =
        static_cast<std::uint64_t>(cli.get_int("seed", static_cast<std::int64_t>(cfg.seed)));
    cfg.rebalance_every = static_cast<int>(cli.get_int("rebalance-every", cfg.rebalance_every));
    cfg.uniform_sphere = cli.get_bool("uniform-sphere", cfg.uniform_sphere);
    const int p = static_cast<int>(cli.get_int("p", 8));

    rt::Machine machine = make_machine(p);
    apply_workers(cli, machine, p);
    return run_and_report(machine, p, std::string("nbody_") + model_slug(model), model,
                          metrics::Options::from_cli(cli), sanitize_mode(cli),
                          checkpoint_cli(cli, "nbody", "step"),
                          [&](rt::Machine& m) { return run_nbody(model, m, p, cfg); });
  });
}

int mesh_main(int argc, char** argv, Model model) {
  std::map<std::string, std::string> flags{
      {"p", "simulated processor count (default 8)"},
      {"box", "initial box resolution per axis (default 10)"},
      {"phases", "adaptation phases (default 3)"},
      {"solve-ns", "surrogate solver work per element per phase in ns"},
      {"no-plum", "disable the PLUM balance stage (MP/SHMEM)"},
      {"sanitize", "race/usage checking: off|report|abort (bare flag = report)"},
  };
  add_workers_flag(flags);
  metrics::add_cli_flags(flags);
  add_checkpoint_flags(flags, "phase");
  return main_guard(argc, argv, flags, [&](const Cli& cli) {
    MeshConfig cfg;
    const int box = static_cast<int>(cli.get_int("box", cfg.nx));
    cfg.nx = cfg.ny = cfg.nz = box;
    cfg.phases = static_cast<int>(cli.get_int("phases", cfg.phases));
    cfg.solve_ns_per_tet = cli.get_double("solve-ns", cfg.solve_ns_per_tet);
    cfg.use_plum = !cli.get_bool("no-plum", false);
    const int p = static_cast<int>(cli.get_int("p", 8));

    rt::Machine machine = make_machine(p);
    apply_workers(cli, machine, p);
    return run_and_report(machine, p, std::string("mesh_") + model_slug(model), model,
                          metrics::Options::from_cli(cli), sanitize_mode(cli),
                          checkpoint_cli(cli, "mesh", "phase"),
                          [&](rt::Machine& m) { return run_mesh(model, m, p, cfg); });
  });
}

int dht_main(int argc, char** argv, Model model) {
  std::map<std::string, std::string> flags{
      {"p", "simulated processor count (default 8)"},
      {"nodes-per-pe", "overlay nodes hosted per PE (default 4)"},
      {"keys", "keyspace size (default 16384)"},
      {"requests", "client requests to serve (default 1000000)"},
      {"window", "closed-loop in-flight request cap (default 4096)"},
      {"replicas", "copies per key (default 3)"},
      {"churn-every", "served requests between membership events (default 50000)"},
      {"zipf-s", "key-popularity skew exponent (default 0.9)"},
      {"put-percent", "share of requests that are puts (default 12)"},
      {"seed", "RNG seed"},
      {"sanitize", "race/usage checking: off|report|abort (bare flag = report)"},
  };
  add_workers_flag(flags);
  metrics::add_cli_flags(flags);
  add_checkpoint_flags(flags, "setup");
  return main_guard(argc, argv, flags, [&](const Cli& cli) {
    DhtConfig cfg;
    cfg.nodes_per_pe = static_cast<int>(cli.get_int("nodes-per-pe", cfg.nodes_per_pe));
    cfg.keys = static_cast<std::uint32_t>(
        count_flag(cli, "keys", static_cast<std::int64_t>(cfg.keys)));
    cfg.requests = static_cast<std::uint64_t>(
        count_flag(cli, "requests", static_cast<std::int64_t>(cfg.requests)));
    cfg.window = static_cast<std::uint64_t>(
        count_flag(cli, "window", static_cast<std::int64_t>(cfg.window)));
    cfg.replicas = static_cast<int>(cli.get_int("replicas", cfg.replicas));
    cfg.churn_every = static_cast<std::uint64_t>(
        count_flag(cli, "churn-every", static_cast<std::int64_t>(cfg.churn_every)));
    cfg.zipf_s = cli.get_double("zipf-s", cfg.zipf_s);
    cfg.put_percent = static_cast<int>(cli.get_int("put-percent", cfg.put_percent));
    cfg.seed =
        static_cast<std::uint64_t>(cli.get_int("seed", static_cast<std::int64_t>(cfg.seed)));
    const int p = static_cast<int>(cli.get_int("p", 8));

    rt::Machine machine = make_machine(p);
    apply_workers(cli, machine, p);
    return run_and_report(machine, p, std::string("dht_") + model_slug(model), model,
                          metrics::Options::from_cli(cli), sanitize_mode(cli),
                          checkpoint_cli(cli, "dht", "setup"),
                          [&](rt::Machine& m) { return run_dht(model, m, p, cfg); });
  });
}

}  // namespace o2k::apps::appmain
