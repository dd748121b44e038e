// R-M1 — Host micro-benchmarks of the simulator's own primitives
// (google-benchmark).  These measure *host* cost, not simulated time: they
// exist so regressions in the simulation machinery itself are visible.
//
// A second mode, `--wall`, sweeps the fig1/fig3/dht smoke workloads over
// all three models and P = {1..256} (a scaled Origin2000 beyond the paper's
// 64 processors; identical per-hop costs, see
// MachineParams::origin2000_scaled) and records host wall-clock seconds per
// point as line-oriented JSON (schema o2k.bench_sched.v6).  Every point is
// measured with 3 repetitions and records the *median* — the header line
// carries "reps" and "host_cores" so a baseline is legible on any host.
// Every point runs at workers=1; points at P >= 8 are additionally measured
// at workers=4 (four synchronization domains, DESIGN.md §11), whose
// "speedup" column is wall(workers=1)/wall(workers=4), the
// host-parallelism metric.  All makespans of a point — across repetitions
// and worker counts — must agree bit-exactly; any mismatch aborts the run
// with exit 1.
//
//   ./bench_micro_runtime --wall --out=BENCH_sched.json
//
// A third mode, `--gate=<BENCH_sched.json>`, is the CI perf-smoke gate: it
// re-runs a pinned subset of the sweep (median of 3 repetitions, including
// workers=4 points) and fails (exit 1) if any
// point's median wall time regressed more than 25% against the committed
// file, or if any point's makespan drifted from it.  Baseline problems
// exit with distinct codes (2 missing file, 3 malformed JSON, 4 schema
// mismatch) so CI can tell a regression from a broken artifact — see
// bench_gate.hpp.
//
//   ./bench_micro_runtime --gate=BENCH_sched.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "apps/dht_app.hpp"
#include "apps/mesh_app.hpp"
#include "apps/mesh_detail.hpp"
#include "apps/nbody_app.hpp"
#include "bench_gate.hpp"
#include "mp/comm.hpp"
#include "plum/partition.hpp"
#include "sas/sas.hpp"
#include "shmem/shmem.hpp"

using namespace o2k;

namespace {

void BM_MachineRunOverhead(benchmark::State& state) {
  rt::Machine machine;
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto rr = machine.run(p, [](rt::Pe& pe) { pe.advance(1.0); });
    benchmark::DoNotOptimize(rr.makespan_ns);
  }
}
BENCHMARK(BM_MachineRunOverhead)->Arg(1)->Arg(8)->Arg(32);

void BM_Barrier(benchmark::State& state) {
  rt::Machine machine;
  const int p = static_cast<int>(state.range(0));
  const int iters = 50;
  for (auto _ : state) {
    machine.run(p, [&](rt::Pe& pe) {
      for (int i = 0; i < iters; ++i) pe.barrier(10.0);
    });
  }
  state.SetItemsProcessed(state.iterations() * iters);
}
BENCHMARK(BM_Barrier)->Arg(4)->Arg(16)->Arg(64);

void BM_MpAllreduce(benchmark::State& state) {
  rt::Machine machine;
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::World w(machine.params(), p);
    machine.run(p, [&](rt::Pe& pe) {
      mp::Comm comm(w, pe);
      for (int i = 0; i < 10; ++i) benchmark::DoNotOptimize(comm.allreduce_sum(1.0));
    });
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_MpAllreduce)->Arg(4)->Arg(16);

void BM_ShmemPut(benchmark::State& state) {
  rt::Machine machine;
  const auto bytes = static_cast<std::size_t>(state.range(0));
  shmem::World w(machine.params(), 2, bytes + 65536);
  for (auto _ : state) {
    machine.run(2, [&](rt::Pe& pe) {
      shmem::Ctx ctx(w, pe);
      auto arr = ctx.malloc<std::byte>(bytes);
      std::vector<std::byte> buf(bytes);
      if (pe.rank() == 0) {
        for (int i = 0; i < 16; ++i) ctx.put(arr, std::span<const std::byte>(buf), 1);
      }
      ctx.barrier_all();
    });
  }
  state.SetBytesProcessed(state.iterations() * 16 * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ShmemPut)->Arg(128)->Arg(65536);

void BM_SasTouch(benchmark::State& state) {
  rt::Machine machine;
  sas::World w(machine.params(), 2, std::size_t{8} << 20);
  auto arr = w.alloc<double>(65536);
  for (auto _ : state) {
    machine.run(2, [&](rt::Pe& pe) {
      sas::Team team(w, pe);
      for (int i = 0; i < 8; ++i) team.touch_read_range(arr, 0, 65536);
    });
  }
  state.SetItemsProcessed(state.iterations() * 8 * 65536);
}
BENCHMARK(BM_SasTouch);

// Single-element reads of one resident line: after the first read misses
// it in, every read is a cache hit with no sink or sanitizer attached.
void BM_SasTouchHit(benchmark::State& state) {
  constexpr int kReads = 1 << 20;
  rt::Machine machine;
  sas::World w(machine.params(), 1, std::size_t{1} << 20);
  auto arr = w.alloc<double>(16);  // 128 B: one line
  double sum = 0.0;
  for (auto _ : state) {
    machine.run(1, [&](rt::Pe& pe) {
      sas::Team team(w, pe);
      for (int i = 0; i < kReads; ++i) sum += team.read(arr, static_cast<std::size_t>(i) & 15);
    });
  }
  benchmark::DoNotOptimize(sum);
  // Seconds per hit, printed with an SI prefix (e.g. "8ns").
  state.counters["time_per_hit"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * kReads,
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SasTouchHit);

// The mesh apps' host kernels on a 30x30x29 box (156 600 tets, about the
// element count the mesh-p64 workload reaches in its last phase).
const mesh::TetMesh& bench_box() {
  static const mesh::TetMesh m = mesh::make_box_mesh(30, 30, 29);
  return m;
}

std::vector<plum::Element> bench_cloud() {
  const mesh::TetMesh& m = bench_box();
  std::vector<plum::Element> el(m.tets.size());
  for (std::size_t t = 0; t < m.tets.size(); ++t) {
    el[t] = {m.centroid(static_cast<mesh::TetId>(t)), 1.0};
  }
  return el;
}

// Rank 0's serial RIB of the gathered element cloud into P = 64 parts.
void BM_RibPartition(benchmark::State& state) {
  const auto el = bench_cloud();
  for (auto _ : state) benchmark::DoNotOptimize(plum::rib_partition(el, 64).data());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(el.size()));
}
BENCHMARK(BM_RibPartition)->Unit(benchmark::kMillisecond);

// One local_mask sweep over rank 0's share of a P = 64 partition, against
// the marks of a sphere front over the whole mesh (each PE's mark set holds
// every rank's marks, as in the apps).
void BM_MeshLocalMask(benchmark::State& state) {
  const mesh::TetMesh& m = bench_box();
  const auto owner = plum::rib_partition(bench_cloud(), 64);
  apps::detail::LocalMesh all, mine;
  for (std::size_t t = 0; t < m.tets.size(); ++t) {
    apps::detail::TetRec r{};
    for (int k = 0; k < 4; ++k) {
      const Vec3& p = m.verts[static_cast<std::size_t>(m.tets[t].v[static_cast<std::size_t>(k)])];
      r.c[k][0] = p.x;
      r.c[k][1] = p.y;
      r.c[k][2] = p.z;
    }
    all.add_record(r);
    if (owner[t] == 0) mine.add_record(r);
  }
  apps::detail::MarkSet64 marks;
  apps::detail::mark_local(all, {Vec3(8.0, 8.0, 8.0), 9.0, 1.5}, marks);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::size_t t = 0; t < mine.tets.size(); ++t) sum += apps::detail::local_mask(mine, t, marks);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(mine.tets.size()));
}
BENCHMARK(BM_MeshLocalMask);

// ---------------------------------------------------------------------------
// --wall mode: end-to-end host wall-clock of the fig1/fig3 smoke sweeps.
// ---------------------------------------------------------------------------

constexpr int kReps = 3;  ///< repetitions per point; points record the median

struct WallPoint {
  std::string app;
  std::string model;
  int p = 0;
  int workers = 1;           ///< synchronization domains (O2K_WORKERS)
  double wall_s = 0.0;       ///< median of kReps runs
  double makespan_ns = 0.0;  ///< virtual time (identical across everything)
};

std::string point_key(const WallPoint& pt) {
  return pt.app + "|" + pt.model + "|" + std::to_string(pt.p) + "|w" +
         std::to_string(pt.workers);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

apps::Model model_from_slug(const std::string& s) {
  if (s == "mp") return apps::Model::kMp;
  if (s == "shmem") return apps::Model::kShmem;
  if (s == "sas") return apps::Model::kSas;
  std::cerr << "bench_micro_runtime: unknown model slug " << s << "\n";
  std::exit(2);
}

/// One timed execution of a sweep workload; returns (wall_s, makespan_ns).
std::pair<double, double> timed_run(rt::Machine& machine, const std::string& app,
                                    apps::Model model, int p) {
  const auto t0 = std::chrono::steady_clock::now();
  double makespan = 0.0;
  if (app == "nbody") {
    apps::NbodyConfig cfg;  // fig1 smoke scale
    cfg.n = 8192;
    cfg.steps = 2;
    makespan = apps::run_nbody(model, machine, p, cfg).run.makespan_ns;
  } else if (app == "dht") {
    apps::DhtConfig cfg;  // smoke-scale traffic with a few churn events
    cfg.requests = 60'000;
    cfg.churn_every = 15'000;
    makespan = apps::run_dht(model, machine, p, cfg).run.makespan_ns;
  } else {
    apps::MeshConfig cfg;  // fig3 smoke scale
    cfg.nx = cfg.ny = cfg.nz = 10;
    cfg.phases = 3;
    makespan = apps::run_mesh(model, machine, p, cfg).run.makespan_ns;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return {wall, makespan};
}

/// Measure one sweep point: kReps repetitions, median recorded.  Returns
/// false (and prints) if any makespan disagrees with any other — every
/// point must be bit-reproducible across repetitions and worker counts.
bool measure_point(rt::Machine& machine, WallPoint& pt) {
  const auto model = model_from_slug(pt.model);
  machine.set_workers(pt.workers);
  std::vector<double> walls, mks;
  for (int r = 0; r < kReps; ++r) {
    const auto [w, mk] = timed_run(machine, pt.app, model, pt.p);
    walls.push_back(w);
    mks.push_back(mk);
  }
  machine.set_workers(std::nullopt);
  pt.wall_s = median(walls);
  pt.makespan_ns = mks.front();
  for (double mk : mks) {
    if (mk != mks.front()) {
      std::fprintf(stderr,
                   "ERROR: makespan drift at %s (%.17g vs %.17g) — the substrate leaked "
                   "host scheduling into virtual time\n",
                   point_key(pt).c_str(), mks.front(), mk);
      return false;
    }
  }
  return true;
}

int run_wall_mode(const std::string& out_path, int pmax) {
  std::vector<int> procs;
  for (int p : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
    if (p <= pmax) procs.push_back(p);

  const apps::Model models[] = {apps::Model::kMp, apps::Model::kShmem, apps::Model::kSas};

  rt::Machine machine(origin::MachineParams::origin2000_scaled(std::max(pmax, 256)));
  std::vector<WallPoint> points;
  bool ok = true;
  for (const char* app : {"nbody", "mesh", "dht"}) {
    for (auto model : models) {
      for (int p : procs) {
        WallPoint pt;
        pt.app = app;
        pt.model = apps::model_slug(model);
        pt.p = p;
        ok = measure_point(machine, pt) && ok;
        points.push_back(pt);
        std::fprintf(stderr, "  %-5s %-6s P=%-4d w=1  %.3fs\n", pt.app.c_str(),
                     pt.model.c_str(), pt.p, pt.wall_s);
        // The host-parallel sweep: 4 synchronization domains need >= 4
        // nodes, i.e. P >= 8 at two PEs per node; below that DomainMap
        // would clamp and re-measure the workers=1 configuration.
        if (p >= 8) {
          WallPoint w4 = pt;
          w4.workers = 4;
          ok = measure_point(machine, w4) && ok;
          if (w4.makespan_ns != pt.makespan_ns) {
            std::fprintf(stderr,
                         "ERROR: makespan drift at %s vs workers=1 (%.17g vs %.17g) — "
                         "domain decomposition leaked into virtual time\n",
                         point_key(w4).c_str(), w4.makespan_ns, pt.makespan_ns);
            ok = false;
          }
          points.push_back(w4);
          std::fprintf(stderr, "  %-5s %-6s P=%-4d w=4  %.3fs  (x%.2f vs w=1)\n",
                       w4.app.c_str(), w4.model.c_str(), w4.p, w4.wall_s,
                       w4.wall_s > 0 ? pt.wall_s / w4.wall_s : 0.0);
        }
      }
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_micro_runtime: cannot write " << out_path << "\n";
    return 2;
  }
  char hdr[160];
  std::snprintf(hdr, sizeof hdr,
                "{\"schema\":\"o2k.bench_sched.v6\",\"reps\":%d,\"host_cores\":%u,"
                "\"points\":[\n",
                kReps, std::thread::hardware_concurrency());
  out << hdr;
  // workers>1 lines carry a speedup column: wall(w=1)/wall(w=N) — the
  // host-parallelism win of the domain scheduler, meaningful only when
  // host_cores >= workers.
  auto base_wall = [&](const WallPoint& pt) -> double {
    for (const WallPoint& b : points)
      if (b.workers == 1 && b.app == pt.app && b.model == pt.model && b.p == pt.p)
        return b.wall_s;
    return 0.0;
  };
  double total = 0.0, total_w4 = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const WallPoint& pt = points[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"app\":\"%s\",\"model\":\"%s\",\"P\":%d,\"workers\":%d,"
                  "\"wall_s\":%.6f,",
                  pt.app.c_str(), pt.model.c_str(), pt.p, pt.workers, pt.wall_s);
    out << buf;
    if (pt.workers == 1) {
      total += pt.wall_s;
    } else {
      total_w4 += pt.wall_s;
      std::snprintf(buf, sizeof buf, "\"speedup\":%.2f,",
                    pt.wall_s > 0 ? base_wall(pt) / pt.wall_s : 0.0);
      out << buf;
    }
    std::snprintf(buf, sizeof buf, "\"makespan_ns\":%.17g}", pt.makespan_ns);
    out << buf << (i + 1 < points.size() ? "," : "") << "\n";
  }
  char buf[256];
  std::snprintf(buf, sizeof buf, "],\"total\":{\"wall_s\":%.6f,\"w4_wall_s\":%.6f}}", total,
                total_w4);
  out << buf << "\n";
  std::fprintf(stderr, "wrote %s (w=1 %.3fs, w=4 %.3fs)\n", out_path.c_str(), total, total_w4);
  if (!ok) {
    std::fprintf(stderr, "FAILED: unexpected makespan drift (see above)\n");
    return 1;
  }
  return 0;
}

/// CI perf-smoke gate: pinned subset, median of kReps, 25% wall budget.  Baseline problems throw bench::GateBaselineError
/// (caught in main).
int run_gate_mode(const std::string& baseline_path) {
  const auto baseline = bench::load_gate_baseline("bench_micro_runtime", baseline_path,
                                                  "o2k.bench_sched.v6", /*with_app=*/true);
  auto find = [&](const std::string& app, const std::string& model, int p,
                  int workers) -> const bench::GateRecord* {
    for (const auto& b : baseline)
      if (b.app == app && b.model == model && b.p == p && b.workers == workers) return &b;
    return nullptr;
  };

  struct GatePoint {
    const char* app;
    const char* model;
    int p;
    int workers;
  };
  const GatePoint pinned[] = {{"nbody", "mp", 64, 1},  {"nbody", "sas", 64, 1},
                              {"mesh", "mp", 64, 1},   {"mesh", "sas", 64, 1},
                              {"dht", "mp", 64, 1},    {"mesh", "sas", 64, 4},
                              {"dht", "mp", 64, 4}};
  constexpr double kBudget = 1.25;  // fail when median wall regresses >25%

  rt::Machine machine(origin::MachineParams::origin2000_scaled(256));
  bool ok = true;
  for (const auto& g : pinned) {
    const bench::GateRecord* base = find(g.app, g.model, g.p, g.workers);
    if (base == nullptr) {
      throw bench::GateBaselineError(
          bench::kGateSchema, std::string("bench_micro_runtime: pinned point ") + g.app + "|" +
                                  g.model + "|" + std::to_string(g.p) + "|w" +
                                  std::to_string(g.workers) +
                                  " missing from " + baseline_path +
                                  " — regenerate with --wall");
    }
    const auto model = model_from_slug(g.model);
    machine.set_workers(g.workers);
    std::vector<double> walls, mks;
    for (int r = 0; r < kReps; ++r) {
      const auto [w, mk] = timed_run(machine, g.app, model, g.p);
      walls.push_back(w);
      mks.push_back(mk);
    }
    machine.set_workers(std::nullopt);
    const double wall = median(walls);
    const bool slow = wall > base->wall_s * kBudget;
    // Virtual time is host-independent, so the gate also pins makespans —
    // bit-exactly against the committed file for every repetition (and, for
    // workers=4 points, against the workers=1 baseline value via the file).
    bool drifted = false;
    for (double mk : mks) drifted = drifted || mk != base->makespan_ns;
    std::fprintf(stderr,
                 "  gate %-5s %-6s P=%-3d w=%d  wall %.3fs (budget %.3fs)%s%s\n",
                 g.app, g.model, g.p, g.workers, wall,
                 base->wall_s * kBudget, slow ? "  WALL REGRESSION" : "",
                 drifted ? "  MAKESPAN DRIFT" : "");
    ok = ok && !slow && !drifted;
  }
  if (!ok) {
    std::fprintf(stderr, "FAILED: perf-smoke gate (baseline %s)\n", baseline_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "perf-smoke gate passed (baseline %s)\n", baseline_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool wall = false;
  int pmax = 256;  // default sweep ceiling; --pmax=1024 for the R-X1 runs
  std::string out_path = "bench_sched.json", gate_path;
  std::vector<char*> pass{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--wall") {
      wall = true;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else if (a.rfind("--gate=", 0) == 0) {
      gate_path = a.substr(7);
    } else if (a.rfind("--pmax=", 0) == 0) {
      const std::string tok = a.substr(7);
      try {
        std::size_t used = 0;
        pmax = std::stoi(tok, &used);
        if (used != tok.size() || pmax < 1) throw std::invalid_argument(tok);
      } catch (const std::exception&) {
        std::fprintf(stderr,
                     "bench_micro_runtime: --pmax expects a positive integer, got '%s'\n",
                     tok.c_str());
        return 2;
      }
    } else {
      pass.push_back(argv[i]);
    }
  }
  if (!gate_path.empty()) {
    try {
      return run_gate_mode(gate_path);
    } catch (const bench::GateBaselineError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return e.exit_code();
    }
  }
  if (wall) return run_wall_mode(out_path, pmax);
  int pargc = static_cast<int>(pass.size());
  benchmark::Initialize(&pargc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, pass.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
