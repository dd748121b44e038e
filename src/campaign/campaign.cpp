// Campaign spec parsing, grid expansion and the forked worker pool.
//
// Spec grammar (line-oriented; '#' starts a comment, blank lines ignored):
//
//   schema o2k.campaign.v1          # mandatory first directive
//   app nbody                       # nbody | mesh | dht
//   models mp,sas                   # subset of mp,shmem,sas
//   p 2,4                           # simulated PE counts
//   workers 1,4                     # synchronization domains (default 1);
//                                   # points with workers > 1 always run cold
//   warm 1                          # warm-fork branchable sweeps (default 1)
//   verify 1                        # cold controls + bit comparison (default 0)
//   jobs 4                          # pool bound; --jobs overrides
//   warm-occurrence 1               # which marker occurrence to fork at
//   set n = 256                     # fixed app parameter
//   sweep steps = 1,2,3             # sweep axis
//
// Branchable axes (consumed through the common::overlay after the app's
// checkpoint marker, hence shareable by warm forks): nbody steps; mesh
// phases and solve-ns; dht window under the MP model only (SHMEM/SAS size
// symmetric mailboxes from it during setup).  Everything else is a grid
// axis: each value is a separate setup, so a separate (cold) process.
#include "campaign/campaign.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "apps/dht_app.hpp"
#include "apps/mesh_app.hpp"
#include "apps/nbody_app.hpp"
#include "campaign/snapshot.hpp"
#include "common/check.hpp"
#include "common/overlay.hpp"
#include "metrics/report.hpp"

namespace o2k::campaign {

namespace {

// ---- small lexing helpers ----------------------------------------------

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(trim(cur));
  return out;
}

std::optional<std::int64_t> strict_i64(const std::string& tok) {
  if (tok.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(tok, &used);
    if (used != tok.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> strict_f64(const std::string& tok) {
  if (tok.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const double v = std::stod(tok, &used);
    if (used != tok.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// File-name-safe token: anything outside [A-Za-z0-9._-] becomes '_'.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

// ---- per-app parameter schema ------------------------------------------

enum class ParamKind { kInt, kFloat, kBool };

const std::map<std::string, std::map<std::string, ParamKind>>& param_schema() {
  static const std::map<std::string, std::map<std::string, ParamKind>> s{
      {"nbody",
       {{"n", ParamKind::kInt},
        {"steps", ParamKind::kInt},
        {"theta", ParamKind::kFloat},
        {"seed", ParamKind::kInt},
        {"rebalance-every", ParamKind::kInt},
        {"uniform-sphere", ParamKind::kBool}}},
      {"mesh",
       {{"box", ParamKind::kInt},
        {"phases", ParamKind::kInt},
        {"solve-ns", ParamKind::kFloat},
        {"no-plum", ParamKind::kBool}}},
      {"dht",
       {{"nodes-per-pe", ParamKind::kInt},
        {"keys", ParamKind::kInt},
        {"requests", ParamKind::kInt},
        {"window", ParamKind::kInt},
        {"replicas", ParamKind::kInt},
        {"churn-every", ParamKind::kInt},
        {"zipf-s", ParamKind::kFloat},
        {"put-percent", ParamKind::kInt},
        {"seed", ParamKind::kInt}}},
  };
  return s;
}

/// The overlay key a swept flag branches through, or "" when the flag is
/// not branchable for (app, model) — see the header comment.
std::string overlay_key_for(const std::string& app, const std::string& flag,
                            const std::string& model) {
  if (app == "nbody" && flag == "steps") return "nbody.steps";
  if (app == "mesh" && flag == "phases") return "mesh.phases";
  if (app == "mesh" && flag == "solve-ns") return "mesh.solve_ns";
  if (app == "dht" && flag == "window" && model == "mp") return "dht.window";
  return "";
}

const char* marker_label(const std::string& app) {
  if (app == "nbody") return "step";
  if (app == "mesh") return "phase";
  return "setup";  // dht: once, after the init barrier
}

// ---- config construction (values are pre-validated by parse/expand) ----

std::int64_t param_i64(const std::map<std::string, std::string>& p, const std::string& key,
                       std::int64_t fallback) {
  const auto it = p.find(key);
  if (it == p.end()) return fallback;
  const auto v = strict_i64(it->second);
  O2K_CHECK(v.has_value(), "campaign: unvalidated int param leaked");
  return *v;
}

double param_f64(const std::map<std::string, std::string>& p, const std::string& key,
                 double fallback) {
  const auto it = p.find(key);
  if (it == p.end()) return fallback;
  const auto v = strict_f64(it->second);
  O2K_CHECK(v.has_value(), "campaign: unvalidated float param leaked");
  return *v;
}

bool param_bool(const std::map<std::string, std::string>& p, const std::string& key,
                bool fallback) {
  const auto it = p.find(key);
  if (it == p.end()) return fallback;
  return it->second == "1" || it->second == "true";
}

apps::Model model_from_slug(const std::string& m) {
  if (m == "mp") return apps::Model::kMp;
  if (m == "shmem") return apps::Model::kShmem;
  if (m == "sas") return apps::Model::kSas;
  throw SpecError("campaign: unknown model '" + m + "'");
}

apps::AppReport run_app(const TaskGroup& g, rt::Machine& machine) {
  const apps::Model model = model_from_slug(g.model);
  if (g.app == "nbody") {
    apps::NbodyConfig cfg;
    cfg.n = static_cast<std::size_t>(param_i64(g.params, "n", static_cast<std::int64_t>(cfg.n)));
    cfg.steps = static_cast<int>(param_i64(g.params, "steps", cfg.steps));
    cfg.theta = param_f64(g.params, "theta", cfg.theta);
    cfg.seed = static_cast<std::uint64_t>(
        param_i64(g.params, "seed", static_cast<std::int64_t>(cfg.seed)));
    cfg.rebalance_every = static_cast<int>(param_i64(g.params, "rebalance-every",
                                                     cfg.rebalance_every));
    cfg.uniform_sphere = param_bool(g.params, "uniform-sphere", cfg.uniform_sphere);
    return apps::run_nbody(model, machine, g.p, cfg);
  }
  if (g.app == "mesh") {
    apps::MeshConfig cfg;
    const int box = static_cast<int>(param_i64(g.params, "box", cfg.nx));
    cfg.nx = cfg.ny = cfg.nz = box;
    cfg.phases = static_cast<int>(param_i64(g.params, "phases", cfg.phases));
    cfg.solve_ns_per_tet = param_f64(g.params, "solve-ns", cfg.solve_ns_per_tet);
    cfg.use_plum = !param_bool(g.params, "no-plum", false);
    return apps::run_mesh(model, machine, g.p, cfg);
  }
  apps::DhtConfig cfg;
  cfg.nodes_per_pe = static_cast<int>(param_i64(g.params, "nodes-per-pe", cfg.nodes_per_pe));
  cfg.keys = static_cast<std::uint32_t>(
      param_i64(g.params, "keys", static_cast<std::int64_t>(cfg.keys)));
  cfg.requests = static_cast<std::uint64_t>(
      param_i64(g.params, "requests", static_cast<std::int64_t>(cfg.requests)));
  cfg.window = static_cast<std::uint64_t>(
      param_i64(g.params, "window", static_cast<std::int64_t>(cfg.window)));
  cfg.replicas = static_cast<int>(param_i64(g.params, "replicas", cfg.replicas));
  cfg.churn_every = static_cast<std::uint64_t>(
      param_i64(g.params, "churn-every", static_cast<std::int64_t>(cfg.churn_every)));
  cfg.zipf_s = param_f64(g.params, "zipf-s", cfg.zipf_s);
  cfg.put_percent = static_cast<int>(param_i64(g.params, "put-percent", cfg.put_percent));
  cfg.seed = static_cast<std::uint64_t>(
      param_i64(g.params, "seed", static_cast<std::int64_t>(cfg.seed)));
  return apps::run_dht(model, machine, g.p, cfg);
}

// ---- per-run result files ----------------------------------------------

struct UnitResult {
  std::string label;
  bool ok = false;
  bool warm = false;
  std::uint64_t makespan_bits = 0;
  double makespan_ns = 0.0;
  double host_seconds = 0.0;
  std::string error;
};

void write_result(const std::string& path, const UnitResult& r) {
  std::ofstream out(path, std::ios::trunc);
  char bits[24];
  std::snprintf(bits, sizeof bits, "%016" PRIx64, r.makespan_bits);
  out << "label " << r.label << '\n'
      << "ok " << (r.ok ? 1 : 0) << '\n'
      << "warm " << (r.warm ? 1 : 0) << '\n'
      << "makespan_bits " << bits << '\n'
      << "makespan_ns " << r.makespan_ns << '\n'
      << "host_seconds " << r.host_seconds << '\n';
  if (!r.error.empty()) out << "error " << r.error << '\n';
}

std::optional<UnitResult> read_result(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  UnitResult r;
  std::string line;
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    const std::string val = line.substr(sp + 1);
    if (key == "label") r.label = val;
    else if (key == "ok") r.ok = val == "1";
    else if (key == "warm") r.warm = val == "1";
    else if (key == "makespan_bits") r.makespan_bits = std::strtoull(val.c_str(), nullptr, 16);
    else if (key == "makespan_ns") r.makespan_ns = strict_f64(val).value_or(0.0);
    else if (key == "host_seconds") r.host_seconds = strict_f64(val).value_or(0.0);
    else if (key == "error") r.error = val;
  }
  return r;
}

void apply_overlay(const RunUnit& u) {
  for (const auto& [k, v] : u.overlay) common::overlay_set(k, v);
}

// ---- the forked worker body --------------------------------------------

/// Runs inside a forked child; returns the child's exit code.  A warm
/// group forks one grandchild per extra unit at the checkpoint rendezvous;
/// grandchildren unwind through this same function and exit via the
/// caller's _exit.
int exec_group(const TaskGroup& g, const std::string& runs_dir, const std::string& snap_dir) {
  const auto host_start = std::chrono::steady_clock::now();
  rt::Machine machine;
  // Pin the domain count from the spec (never the inherited O2K_WORKERS
  // env) so a campaign's run list is reproducible from its spec alone.
  // Warm groups always have workers == 1, so the stem runs on the calling
  // thread alone and the checkpoint rendezvous is fork-safe.
  machine.set_workers(g.workers);

  std::size_t active = 0;  // which unit this process carries to completion
  std::vector<pid_t> kids;
  if (g.warm) {
    machine.arm_checkpoint(
        g.cp_label, g.cp_occurrence, [&](rt::Machine& m, rt::Pe& pe) {
          O2K_CHECK(m.fork_safe(pe.rank()), "campaign: checkpoint rendezvous not fork-safe");
          // Persist the forked-from state so any branch can later be
          // re-verified with the app binaries' --restore replay.
          rt::StateSink sink;
          capture_state(m, sink);
          Snapshot snap;
          snap.meta.app = g.app;
          snap.meta.model = g.model;
          snap.meta.nprocs = g.p;
          snap.meta.label = g.cp_label;
          snap.meta.occurrence = g.cp_occurrence;
          snap.state = sink.lines();
          write_snapshot(snap_dir + "/" + g.group_label + ".snap", snap);
          std::fflush(nullptr);  // don't duplicate buffered output across fork
          for (std::size_t i = 1; i < g.units.size(); ++i) {
            const pid_t pid = ::fork();
            O2K_CHECK(pid >= 0, "campaign: fork failed at checkpoint");
            if (pid == 0) {
              kids.clear();
              active = i;
              apply_overlay(g.units[i]);
              return;  // resume the run as branch i
            }
            kids.push_back(pid);
          }
          active = 0;
          apply_overlay(g.units[0]);  // after the forks: must not leak to them
        });
  } else {
    apply_overlay(g.units[0]);
  }

  UnitResult res;
  res.warm = g.warm;
  int rc = 0;
  try {
    const apps::AppReport rep = run_app(g, machine);
    if (g.warm) {
      machine.disarm_checkpoint();
      if (!machine.checkpoint_fired()) {
        throw SnapshotError("campaign: marker '" + g.cp_label + "' (occurrence " +
                            std::to_string(g.cp_occurrence) + ") never fired in " +
                            g.group_label);
      }
    }
    res.label = g.units[active].label;
    res.ok = true;
    res.makespan_ns = rep.run.makespan_ns;
    std::memcpy(&res.makespan_bits, &res.makespan_ns, sizeof res.makespan_bits);

    metrics::RunReport report = metrics::build_report(
        rep.run, machine.params(), g.app + "_" + g.model,
        apps::model_name(model_from_slug(g.model)));
    report.meta["campaign.label"] = res.label;
    report.meta["campaign.warm"] = res.warm ? "1" : "0";
    report.meta["campaign.workers"] = std::to_string(g.workers);
    for (const auto& [k, v] : rep.checks) {
      std::ostringstream os;
      os << v;
      report.meta["check." + k] = os.str();
    }
    report.write_json_file(runs_dir + "/" + res.label + ".report.json");
  } catch (const std::exception& e) {
    res.label = g.units[active].label;
    res.ok = false;
    res.error = e.what();
    rc = 1;
  }
  const std::chrono::duration<double> host = std::chrono::steady_clock::now() - host_start;
  res.host_seconds = host.count();
  write_result(runs_dir + "/" + res.label + ".result", res);
  std::fflush(nullptr);

  if (g.warm && active == 0) {
    // Stem: the group's exit code covers every branch.
    for (const pid_t pid : kids) {
      int st = 0;
      if (::waitpid(pid, &st, 0) != pid || !WIFEXITED(st) || WEXITSTATUS(st) != 0) rc = 1;
    }
  }
  return rc;
}

// ---- grid expansion helpers --------------------------------------------

using Axis = std::pair<std::string, std::vector<std::string>>;

/// Visit the cartesian product of `axes` as (key, value) assignments.
void cartesian(const std::vector<Axis>& axes,
               const std::function<void(const std::vector<std::pair<std::string, std::string>>&)>&
                   fn) {
  std::vector<std::pair<std::string, std::string>> cur(axes.size());
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == axes.size()) {
      fn(cur);
      return;
    }
    for (const std::string& v : axes[i].second) {
      cur[i] = {axes[i].first, v};
      rec(i + 1);
    }
  };
  rec(0);
}

std::string axis_tag(const std::vector<std::pair<std::string, std::string>>& assign) {
  std::string out;
  for (const auto& [k, v] : assign) out += "." + sanitize(k) + "-" + sanitize(v);
  return out;
}

}  // namespace

// ---- spec parsing -------------------------------------------------------

Spec parse_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SpecError("campaign spec " + path + ": cannot open (missing file?)");
  Spec spec;

  auto fail = [&](int lineno, const std::string& what) -> void {
    throw SpecError("campaign spec " + path + ":" + std::to_string(lineno) + ": " + what);
  };
  auto want_i64 = [&](int lineno, const std::string& tok, std::int64_t min) {
    const auto v = strict_i64(tok);
    if (!v || *v < min)
      fail(lineno, "expected an integer >= " + std::to_string(min) + ", got '" + tok + "'");
    return *v;
  };

  bool have_schema = false;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const auto sp = line.find(' ');
    const std::string key = sp == std::string::npos ? line : line.substr(0, sp);
    const std::string rest = sp == std::string::npos ? "" : trim(line.substr(sp + 1));

    if (!have_schema) {
      if (key != "schema") fail(lineno, "first directive must be 'schema o2k.campaign.v1'");
      if (rest != "o2k.campaign.v1") fail(lineno, "unsupported schema '" + rest + "'");
      have_schema = true;
      continue;
    }
    if (key == "schema") {
      fail(lineno, "duplicate 'schema' directive");
    } else if (key == "app") {
      if (param_schema().find(rest) == param_schema().end())
        fail(lineno, "unknown app '" + rest + "' (want nbody|mesh|dht)");
      spec.app = rest;
    } else if (key == "models") {
      spec.models.clear();
      for (const std::string& m : split_list(rest)) {
        if (m != "mp" && m != "shmem" && m != "sas")
          fail(lineno, "unknown model '" + m + "' (want mp|shmem|sas)");
        spec.models.push_back(m);
      }
    } else if (key == "p") {
      spec.procs.clear();
      for (const std::string& t : split_list(rest))
        spec.procs.push_back(static_cast<int>(want_i64(lineno, t, 1)));
    } else if (key == "workers") {
      spec.workers.clear();
      for (const std::string& t : split_list(rest))
        spec.workers.push_back(static_cast<int>(want_i64(lineno, t, 1)));
    } else if (key == "warm") {
      spec.warm = want_i64(lineno, rest, 0) != 0;
    } else if (key == "verify") {
      spec.verify = want_i64(lineno, rest, 0) != 0;
    } else if (key == "jobs") {
      spec.jobs = static_cast<int>(want_i64(lineno, rest, 1));
    } else if (key == "warm-occurrence") {
      spec.warm_occurrence = static_cast<int>(want_i64(lineno, rest, 1));
    } else if (key == "set" || key == "sweep") {
      const auto eq = rest.find('=');
      if (eq == std::string::npos) fail(lineno, "expected '" + key + " <param> = <value>'");
      const std::string pkey = trim(rest.substr(0, eq));
      const std::string pval = trim(rest.substr(eq + 1));
      if (pkey.empty()) fail(lineno, "empty parameter name");
      if (pval.empty()) fail(lineno, "empty value for parameter '" + pkey + "'");
      if (key == "set") {
        if (spec.fixed.count(pkey) != 0) fail(lineno, "duplicate 'set " + pkey + "'");
        spec.fixed[pkey] = pval;
      } else {
        for (const auto& [k, vs] : spec.sweeps)
          if (k == pkey) fail(lineno, "duplicate 'sweep " + pkey + "'");
        const auto vals = split_list(pval);
        for (const std::string& v : vals)
          if (v.empty()) fail(lineno, "empty value in sweep list '" + pval + "'");
        spec.sweeps.emplace_back(pkey, vals);
      }
    } else {
      fail(lineno, "unknown directive '" + key + "'");
    }
  }
  if (!have_schema) throw SpecError("campaign spec " + path + ": empty (no schema line)");
  if (spec.app.empty()) throw SpecError("campaign spec " + path + ": missing 'app' directive");
  if (spec.models.empty()) throw SpecError("campaign spec " + path + ": missing 'models'");
  if (spec.procs.empty()) throw SpecError("campaign spec " + path + ": missing 'p'");

  // Validate every parameter against the app's schema, values included.
  const auto& schema = param_schema().at(spec.app);
  auto check_param = [&](const std::string& k, const std::string& v) {
    const auto it = schema.find(k);
    if (it == schema.end()) {
      std::string known;
      for (const auto& [name, kind] : schema) {
        (void)kind;
        known += known.empty() ? name : ", " + name;
      }
      throw SpecError("campaign spec " + path + ": app '" + spec.app +
                      "' has no parameter '" + k + "' (known: " + known + ")");
    }
    const bool ok = it->second == ParamKind::kInt    ? strict_i64(v).has_value()
                    : it->second == ParamKind::kFloat ? strict_f64(v).has_value()
                                                      : (v == "0" || v == "1");
    if (!ok)
      throw SpecError("campaign spec " + path + ": parameter '" + k + "' value '" + v +
                      "' is not a valid " +
                      (it->second == ParamKind::kInt    ? "integer"
                       : it->second == ParamKind::kFloat ? "number"
                                                         : "boolean (0|1)"));
  };
  for (const auto& [k, v] : spec.fixed) check_param(k, v);
  for (const auto& [k, vs] : spec.sweeps) {
    if (spec.fixed.count(k) != 0)
      throw SpecError("campaign spec " + path + ": '" + k + "' is both set and swept");
    for (const std::string& v : vs) check_param(k, v);
  }
  return spec;
}

// ---- expansion ----------------------------------------------------------

std::vector<TaskGroup> expand(const Spec& spec, bool allow_warm) {
  std::vector<TaskGroup> groups;
  for (const std::string& model : spec.models) {
    for (const int p : spec.procs) {
      for (const int workers : spec.workers) {
        if (workers > p)
          throw SpecError("campaign: workers " + std::to_string(workers) + " exceeds p " +
                          std::to_string(p) + " (more synchronization domains than PEs)");
        // Warm forking needs a single synchronization domain: with
        // workers > 1 the engine keeps pool threads alive at the
        // rendezvous, so those points always run cold.
        const bool warm_requested = spec.warm && allow_warm;
        const bool warm_ok = warm_requested && workers == 1;

        std::vector<Axis> branch_axes, grid_axes;
        bool branchable_axis = false;  // a sweep axis warm forking could branch on
        for (const auto& ax : spec.sweeps) {
          const std::string okey = overlay_key_for(spec.app, ax.first, model);
          if (!okey.empty()) branchable_axis = true;
          if (warm_ok && !okey.empty()) {
            // Branch values must keep the marker reachable: the loop-bound
            // overlays (steps/phases) and the dht window are all >= 1.
            for (const std::string& v : ax.second) {
              const auto iv = strict_i64(v);
              if (iv && *iv < 1)
                throw SpecError("campaign: branch value '" + v + "' for '" + ax.first +
                                "' must be >= 1 (the warm fork point must be reachable)");
            }
            branch_axes.push_back(ax);
          } else {
            grid_axes.push_back(ax);
          }
        }

        cartesian(grid_axes, [&](const std::vector<std::pair<std::string, std::string>>& gv) {
          TaskGroup g;
          g.app = spec.app;
          g.model = model;
          g.p = p;
          g.workers = workers;
          g.cp_label = marker_label(spec.app);
          g.cp_occurrence = spec.warm_occurrence;
          g.params = spec.fixed;
          for (const auto& [k, v] : gv) g.params[k] = v;
          g.group_label = spec.app + "." + model + ".p" + std::to_string(p) +
                          (workers > 1 ? ".w" + std::to_string(workers) : "") + axis_tag(gv);

          cartesian(branch_axes,
                    [&](const std::vector<std::pair<std::string, std::string>>& bv) {
                      RunUnit u;
                      u.label = g.group_label + axis_tag(bv);
                      for (const auto& [k, v] : bv)
                        u.overlay[overlay_key_for(spec.app, k, model)] = v;
                      g.units.push_back(std::move(u));
                    });

          if (warm_ok && g.units.size() > 1) {
            g.warm = true;
            groups.push_back(g);
            if (spec.verify) {
              // One cold control per branch; compared bit-for-bit later.
              for (const RunUnit& u : g.units) {
                TaskGroup c = g;
                c.warm = false;
                c.control = true;
                RunUnit cu = u;
                cu.label += ".cold";
                c.units = {std::move(cu)};
                c.group_label = c.units[0].label;
                groups.push_back(std::move(c));
              }
            }
          } else {
            for (RunUnit& u : g.units) {
              TaskGroup c = g;
              c.warm = false;
              // Warm was asked for and a branch axis exists, but workers > 1
              // forced this point cold: record the demotion.
              c.warm_demoted = warm_requested && workers > 1 && branchable_axis;
              c.units = {u};
              c.group_label = u.label;
              groups.push_back(std::move(c));
            }
          }
        });
      }
    }
  }
  return groups;
}

// ---- the pool -----------------------------------------------------------

int run_campaign(const CampaignOptions& opts) {
  namespace fs = std::filesystem;
  const Spec spec = parse_spec(opts.spec_path);
  const std::vector<TaskGroup> groups = expand(spec, /*allow_warm=*/!opts.no_warm);

  std::size_t total_runs = 0, warm_groups = 0, demoted_runs = 0;
  for (const TaskGroup& g : groups) {
    total_runs += g.units.size();
    if (g.warm) ++warm_groups;
    if (g.warm_demoted) demoted_runs += g.units.size();
  }
  if (demoted_runs > 0) {
    std::fprintf(stderr,
                 "o2k-campaign: warning: %zu run(s) demoted from warm to cold — workers > 1 "
                 "keeps the pinned engine's pool threads alive at the fork point "
                 "(manifest rows carry \"warm_demoted\": true)\n",
                 demoted_runs);
  }

  if (opts.dry_run) {
    std::printf("o2k-campaign (dry run): %zu runs in %zu groups (%zu warm)\n", total_runs,
                groups.size(), warm_groups);
    for (const TaskGroup& g : groups) {
      for (const RunUnit& u : g.units) {
        std::printf("  %-12s %s\n",
                    g.warm ? "warm-branch"
                           : (g.control ? "control" : (g.warm_demoted ? "cold-demoted" : "cold")),
                    u.label.c_str());
      }
    }
    return 0;
  }

  const fs::path out(opts.out_dir);
  const fs::path runs_dir = out / "runs";
  const fs::path snap_dir = out / "snapshots";
  std::error_code ec;
  fs::create_directories(runs_dir, ec);
  fs::create_directories(snap_dir, ec);
  if (ec) throw SpecError("campaign: cannot create output dir " + out.string());

  std::ofstream manifest(out / "manifest.jsonl", std::ios::trunc);
  if (!manifest) throw SpecError("campaign: cannot write " + (out / "manifest.jsonl").string());

  int jobs = opts.jobs > 0 ? opts.jobs : spec.jobs;
  if (jobs <= 0)
    jobs = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);

  std::printf("o2k-campaign: %zu runs in %zu groups (%zu warm) on %d worker(s) -> %s\n",
              total_runs, groups.size(), warm_groups, jobs, out.string().c_str());
  const auto wall_start = std::chrono::steady_clock::now();

  std::map<pid_t, std::size_t> running;
  std::size_t next = 0, failures = 0;
  double host_seconds_total = 0.0;
  std::map<std::string, UnitResult> results;

  auto collect = [&](const TaskGroup& g) {
    for (const RunUnit& u : g.units) {
      const auto r = read_result((runs_dir / (u.label + ".result")).string());
      UnitResult ur = r.value_or(UnitResult{u.label, false, g.warm, 0, 0.0, 0.0,
                                            "worker died before writing a result"});
      if (!ur.ok) ++failures;
      host_seconds_total += ur.host_seconds;
      char bits[24];
      std::snprintf(bits, sizeof bits, "%016" PRIx64, ur.makespan_bits);
      manifest << "{\"label\":\"" << json_escape(ur.label) << "\",\"app\":\"" << g.app
               << "\",\"model\":\"" << g.model << "\",\"p\":" << g.p
               << ",\"workers\":" << g.workers
               << ",\"warm\":" << (ur.warm ? "true" : "false")
               << ",\"warm_demoted\":" << (g.warm_demoted ? "true" : "false")
               << ",\"control\":" << (g.control ? "true" : "false")
               << ",\"ok\":" << (ur.ok ? "true" : "false") << ",\"makespan_ns\":"
               << ur.makespan_ns << ",\"makespan_bits\":\"" << bits
               << "\",\"host_seconds\":" << ur.host_seconds;
      if (!ur.error.empty()) manifest << ",\"error\":\"" << json_escape(ur.error) << "\"";
      manifest << ",\"report\":\"runs/" << json_escape(ur.label) << ".report.json\"}\n";
      manifest.flush();
      std::printf("  %-4s %s%s\n", ur.ok ? "ok" : "FAIL", ur.label.c_str(),
                  ur.warm ? " (warm)" : "");
      if (!ur.ok && !ur.error.empty()) std::printf("       %s\n", ur.error.c_str());
      results[ur.label] = std::move(ur);
    }
  };

  while (next < groups.size() || !running.empty()) {
    while (next < groups.size() && running.size() < static_cast<std::size_t>(jobs)) {
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid == 0) ::_exit(exec_group(groups[next], runs_dir.string(), snap_dir.string()));
      O2K_CHECK(pid > 0, "campaign: fork failed");
      running[pid] = next++;
    }
    int st = 0;
    const pid_t done = ::waitpid(-1, &st, 0);
    if (done <= 0) continue;
    const auto it = running.find(done);
    if (it == running.end()) continue;
    const TaskGroup& g = groups[it->second];
    running.erase(it);
    collect(g);
  }

  // Warm-vs-cold determinism gate: every verified branch must reproduce
  // its cold control's virtual makespan bit-for-bit.
  std::size_t verified = 0, mismatches = 0;
  for (const TaskGroup& g : groups) {
    if (!g.warm || !spec.verify) continue;
    for (const RunUnit& u : g.units) {
      const auto wi = results.find(u.label);
      const auto ci = results.find(u.label + ".cold");
      if (wi == results.end() || ci == results.end() || !wi->second.ok || !ci->second.ok)
        continue;
      ++verified;
      if (wi->second.makespan_bits != ci->second.makespan_bits) {
        ++mismatches;
        std::printf("DETERMINISM FAILURE: %s warm %016" PRIx64 " != cold %016" PRIx64 "\n",
                    u.label.c_str(), wi->second.makespan_bits, ci->second.makespan_bits);
      }
    }
  }

  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
  {
    std::ofstream summary(out / "summary.json", std::ios::trunc);
    summary << "{\n  \"schema\": \"o2k.campaign_summary.v1\",\n"
            << "  \"spec\": \"" << json_escape(opts.spec_path) << "\",\n"
            << "  \"runs\": " << total_runs << ",\n"
            << "  \"groups\": " << groups.size() << ",\n"
            << "  \"warm_groups\": " << warm_groups << ",\n"
            << "  \"failures\": " << failures << ",\n"
            << "  \"verified\": " << verified << ",\n"
            << "  \"determinism_mismatches\": " << mismatches << ",\n"
            << "  \"wall_seconds\": " << wall.count() << ",\n"
            << "  \"host_seconds_total\": " << host_seconds_total << "\n}\n";
  }
  std::printf("o2k-campaign: %zu/%zu ok, %zu verified, %zu mismatches, %.2fs wall\n",
              total_runs - failures, total_runs, verified, mismatches, wall.count());
  if (mismatches > 0) return kExitDeterminism;
  return failures > 0 ? kExitRunFailures : 0;
}

}  // namespace o2k::campaign
