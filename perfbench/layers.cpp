// Host-side probes of the o2k layers: process/thread accounting, the span
// log, the observing sink and the per-layer micro-timings.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "dht/chord.hpp"
#include "mesh/mesh.hpp"
#include "mesh/refine.hpp"
#include "mp/comm.hpp"
#include "nbody/body.hpp"
#include "nbody/octree.hpp"
#include "plum/partition.hpp"
#include "sas/sas.hpp"
#include "shmem/shmem.hpp"

namespace o2kbench {

using o2k::rt::Pe;

// ---- process and thread accounting -----------------------------------------

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.vol_csw = ru.ru_nvcsw;
  u.invol_csw = ru.ru_nivcsw;
  return u;
}

long peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

namespace {

std::atomic<const char*> g_pass{"setup"};
std::atomic<const char*> g_step{""};

void report_stage(int) {
  // Async-signal-safe: write(2) of static strings only.
  auto put = [](const char* s) {
    std::size_t n = 0;
    while (s[n] != '\0') ++n;
    (void)!write(2, s, n);
  };
  put("o2kbench: terminated during ");
  put(g_pass.load());
  put(" ");
  put(g_step.load());
  put("\n");
  _exit(4);
}

}  // namespace

void set_stage(const char* pass, const char* step) {
  if (pass) g_pass.store(pass);
  g_step.store(step);
}

void install_stage_reporter() { std::signal(SIGTERM, report_stage); }

namespace {

/// CPU nanoseconds of one thread (schedstat's first field), -1 if the
/// thread is gone.
long long task_cpu_ns(const std::string& tid) {
  std::ifstream in("/proc/self/task/" + tid + "/schedstat");
  long long ns = -1;
  return in >> ns ? ns : -1;
}

std::vector<std::string> task_ids() {
  std::vector<std::string> out;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') out.emplace_back(e->d_name);
    }
    closedir(d);
  }
  return out;
}

}  // namespace

struct TaskSampler::Impl {
  std::atomic<bool> stop{false};
  std::unordered_map<std::string, long long> base;  // CPU ns at start, per tid
  std::unordered_map<std::string, long long> last;  // latest sample, per tid
  std::string self;
  std::thread th;

  void sample() {
    for (const auto& tid : task_ids()) {
      if (tid == self) continue;
      const long long ns = task_cpu_ns(tid);
      if (ns >= 0) last[tid] = ns;
    }
  }
};

TaskSampler::TaskSampler() : impl_(new Impl) {
  for (const auto& tid : task_ids()) impl_->base[tid] = task_cpu_ns(tid);
  std::atomic<bool> ready{false};
  impl_->th = std::thread([this, &ready] {
    impl_->self = std::to_string(gettid());
    ready.store(true);
    while (!impl_->stop.load()) {
      impl_->sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!ready.load()) std::this_thread::yield();
}

TaskSampler::~TaskSampler() {
  if (impl_->th.joinable()) {
    impl_->stop.store(true);
    impl_->th.join();
  }
  delete impl_;
}

std::vector<double> TaskSampler::stop() {
  impl_->stop.store(true);
  impl_->th.join();
  impl_->sample();
  if (impl_->last.empty()) throw std::runtime_error("cannot read /proc/self/task/*/schedstat");
  std::vector<double> busy;
  for (const auto& [tid, ns] : impl_->last) {
    const auto b = impl_->base.find(tid);
    const long long from = b == impl_->base.end() ? 0 : b->second;
    if (ns > from) busy.push_back(1e-9 * static_cast<double>(ns - from));
  }
  return busy;
}

// ---- spans --------------------------------------------------------------------

std::uint32_t SpanLog::open(std::string name, std::uint32_t parent, bool model_run) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, parent, model_run ? id : 0, std::move(name), now_s(), 0.0});
  return id;
}

void SpanLog::close(std::uint32_t id) { spans_.at(id - 1).end_s = now_s(); }

void SpanLog::add(std::string name, std::uint32_t parent, std::uint32_t run, double start_s,
                  double end_s) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, parent, run, std::move(name), start_s, end_s});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"schema\":\"o2kbench.spans.v1\",\"unit\":\"s\",\"spans\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%s\n{\"id\":%u,\"parent\":%u,\"run\":%u,\"start\":%.9f,\"end\":%.9f,",
                  i == 0 ? "" : ",", s.id, s.parent, s.run, s.start_s, s.end_s);
    out << buf << "\"name\":\"" << s.name << "\"}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- the observing sink ----------------------------------------------------------

PhaseSink::PhaseSink(int nprocs) : pes_(static_cast<std::size_t>(nprocs)) {}

void PhaseSink::on_phase_begin(int pe, std::string_view name, double /*t_ns*/) {
  PeSlot& s = pes_[static_cast<std::size_t>(pe)];
  ++s.events;
  s.open.emplace_back(name.data(), now_s());
}

void PhaseSink::on_phase_end(int pe, std::string_view name, double /*t_ns*/) {
  const double t = now_s();
  PeSlot& s = pes_[static_cast<std::size_t>(pe)];
  ++s.events;
  // Phases nest (PhaseScope is RAII), so the matching entry is the top one.
  if (s.open.empty() || s.open.back().first != name.data()) return;
  const double start = s.open.back().second;
  s.open.pop_back();
  auto it = std::find_if(s.phases.begin(), s.phases.end(),
                         [&](const PhaseLog& p) { return p.key == name.data(); });
  if (it == s.phases.end()) {
    s.phases.push_back(PhaseLog{name.data(), std::string(name), {}});
    it = s.phases.end() - 1;
  }
  it->occ.push_back(Occurrence{start, t});
}

void PhaseSink::on_counter(int pe, std::string_view, std::uint64_t, double) {
  ++pes_[static_cast<std::size_t>(pe)].events;
}

void PhaseSink::on_message(int pe, int, int, std::uint64_t, double, bool) {
  ++pes_[static_cast<std::size_t>(pe)].events;
}

void PhaseSink::on_barrier(int pe, double, double) {
  PeSlot& s = pes_[static_cast<std::size_t>(pe)];
  ++s.events;
  ++s.barriers;
}

std::vector<PhaseSink::PhaseSpan> PhaseSink::phase_spans() const {
  // name -> per-occurrence [min start, max end] over PEs
  std::map<std::string, std::vector<Occurrence>> merged;
  for (const PeSlot& s : pes_) {
    for (const PhaseLog& p : s.phases) {
      auto& m = merged[p.name];
      for (std::size_t k = 0; k < p.occ.size(); ++k) {
        if (k == m.size()) {
          m.push_back(p.occ[k]);
        } else {
          m[k].start_s = std::min(m[k].start_s, p.occ[k].start_s);
          m[k].end_s = std::max(m[k].end_s, p.occ[k].end_s);
        }
      }
    }
  }
  std::vector<PhaseSpan> out;
  for (const auto& [name, occ] : merged) {
    for (const Occurrence& o : occ) out.push_back(PhaseSpan{name, o.start_s, o.end_s});
  }
  return out;
}

std::uint64_t PhaseSink::events() const {
  std::uint64_t n = 0;
  for (const PeSlot& s : pes_) n += s.events;
  return n;
}

std::uint64_t PhaseSink::barrier_events() const {
  std::uint64_t n = 0;
  for (const PeSlot& s : pes_) n += s.barriers;
  return n;
}

// ---- micro-timings ------------------------------------------------------------------

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Repetitions per micro-timing.  Fixed and small on purpose: most of them
/// start a Machine::run, and a rare lost wakeup at the end of pinned runs
/// hangs about one short run in 10^5 (README.md, "Known host defects").
constexpr int kReps = 15;

/// Call `rep()` (which returns one sample) kReps times and return the
/// median sample.  The repetitions are recorded as one span named `name`.
double timed(const char* name, SpanLog& spans, std::uint32_t parent,
             const std::function<double()>& rep) {
  set_stage("micro", name);
  const double t0 = now_s();
  std::vector<double> samples;
  for (int i = 0; i < kReps; ++i) samples.push_back(rep());
  spans.add(name, parent, 0, t0, now_s());
  return median(std::move(samples));
}

/// Host seconds of one Machine::run of `body` on all P PEs.
double run_s(o2k::rt::Machine& machine, int P, const std::function<void(Pe&)>& body) {
  const double t0 = now_s();
  machine.run(P, body);
  return now_s() - t0;
}

/// Per-PE host-time accumulator for timings taken inside PE bodies; each
/// PE writes its own padded slot.
struct alignas(64) PeNs {
  double ns = 0.0;
};

double sum_ns(const std::vector<PeNs>& v) {
  double s = 0.0;
  for (const PeNs& x : v) s += x.ns;
  return s;
}

void runtime_timings(const Workload& w, o2k::rt::Machine& machine, SpanLog& spans,
                     std::uint32_t parent, std::map<std::string, double>& out) {
  const int P = w.P;
  const auto& params = machine.params();

  const double empty_s = timed("exec.run_empty", spans, parent, [&] {
    return run_s(machine, P, [](Pe&) {});
  });
  out["exec.run_empty_us"] = 1e6 * empty_s;

  constexpr int kBarriers = 64;
  out["rt.barrier_ns"] = timed("rt.barrier", spans, parent, [&] {
    const double s = run_s(machine, P, [](Pe& pe) {
      for (int b = 0; b < kBarriers; ++b) pe.barrier(0.0);
    });
    return 1e9 * (s - empty_s) / kBarriers;
  });

  // Ping-pong between rank 0 and a partner on the same node (same domain)
  // or on the last node (another domain); every other PE idles.
  constexpr int kRoundTrips = 200;
  auto pingpong = [&](const char* name, int partner) {
    o2k::mp::World world(params, P);
    return timed(name, spans, parent, [&] {
      const double s = run_s(machine, P, [&](Pe& pe) {
        o2k::mp::Comm comm(world, pe);
        std::int64_t v = 0;
        for (int i = 0; i < kRoundTrips; ++i) {
          if (pe.rank() == 0) {
            comm.send_value(v, partner, 7);
            v = comm.recv_value<std::int64_t>(partner, 7);
          } else if (pe.rank() == partner) {
            v = comm.recv_value<std::int64_t>(0, 7) + 1;
            comm.send_value(v, 0, 7);
          }
        }
      });
      return 1e9 * (s - empty_s) / kRoundTrips;
    });
  };
  out["mp.pingpong_ns.local"] = pingpong("mp.pingpong.local", 1);
  out["mp.pingpong_ns.cross"] = pingpong("mp.pingpong.cross", P - 1);

  {
    constexpr int kRounds = 2;
    o2k::mp::World world(params, P);
    out["mp.alltoallv_us"] = timed("mp.alltoallv", spans, parent, [&] {
      const double s = run_s(machine, P, [&](Pe& pe) {
        o2k::mp::Comm comm(world, pe);
        std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(P),
                                                    std::vector<std::int64_t>(2, pe.rank()));
        for (int r = 0; r < kRounds; ++r) (void)comm.alltoallv(send);
      });
      return 1e6 * (s - empty_s) / kRounds;
    });
  }

  // One-sided operations, all PEs issuing towards their right neighbour.
  // Timed inside each PE around the loop: put and fetch_add never park.
  {
    constexpr int kOps = 256;
    o2k::shmem::World world(params, P, std::size_t{1} << 20);
    std::vector<PeNs> put_ns(static_cast<std::size_t>(P)), fadd_ns(static_cast<std::size_t>(P));
    out["shmem.put_ns"] = timed("shmem.put", spans, parent, [&] {
      machine.run(P, [&](Pe& pe) {
        o2k::shmem::Ctx ctx(world, pe);
        const auto buf = ctx.malloc<std::int64_t>(kOps);
        const int dst = (pe.rank() + 1) % P;
        const double t0 = now_s();
        for (int i = 0; i < kOps; ++i) ctx.put_value(buf.at(static_cast<std::size_t>(i)), std::int64_t{i}, dst);
        put_ns[static_cast<std::size_t>(pe.rank())].ns = 1e9 * (now_s() - t0);
        ctx.barrier_all();
      });
      return sum_ns(put_ns) / (static_cast<double>(P) * kOps);
    });
    out["shmem.fetch_add_ns"] = timed("shmem.fetch_add", spans, parent, [&] {
      machine.run(P, [&](Pe& pe) {
        o2k::shmem::Ctx ctx(world, pe);
        const auto cell = ctx.malloc<std::int64_t>(1);
        const int dst = (pe.rank() + 1) % P;
        const double t0 = now_s();
        for (int i = 0; i < kOps; ++i) (void)ctx.fetch_add(cell, 1, dst);
        fadd_ns[static_cast<std::size_t>(pe.rank())].ns = 1e9 * (now_s() - t0);
        ctx.barrier_all();
      });
      return sum_ns(fadd_ns) / (static_cast<double>(P) * kOps);
    });
  }

  // CC-SAS touch walks: in epoch r each PE touches the block homed on PE
  // (rank + r + 1) mod P, so writes pay ownership transfers and reads mix
  // remote misses with hits, as in the applications.
  {
    constexpr std::size_t kLines = 64;
    constexpr int kEpochs = 4;
    const std::size_t line = static_cast<std::size_t>(params.cache_line_bytes);
    const std::size_t block = kLines * line;
    const std::size_t bytes = block * static_cast<std::size_t>(P);
    auto touch = [&](const char* name, bool write) {
      o2k::sas::World world(params, P, bytes + (std::size_t{1} << 20),
                            o2k::sas::Placement::kBlock);
      const auto arr = world.alloc<std::byte>(bytes, "bench.lines");
      std::vector<PeNs> ns(static_cast<std::size_t>(P));
      return timed(name, spans, parent, [&] {
        machine.run(P, [&](Pe& pe) {
          o2k::sas::Team team(world, pe);
          double acc = 0.0;
          for (int r = 0; r < kEpochs; ++r) {
            const std::size_t owner = static_cast<std::size_t>((pe.rank() + r + 1) % P);
            const double t0 = now_s();
            if (write) {
              team.touch_write(arr.offset + owner * block, block);
            } else {
              team.touch_read(arr.offset + owner * block, block);
            }
            acc += now_s() - t0;
            team.barrier();
          }
          ns[static_cast<std::size_t>(pe.rank())].ns = 1e9 * acc;
        });
        return sum_ns(ns) / (static_cast<double>(P) * kEpochs * kLines);
      });
    };
    out["sas.touch_write_ns_per_line"] = touch("sas.touch_write", true);
    out["sas.touch_read_ns_per_line"] = touch("sas.touch_read", false);
  }
}

void nbody_timings(const Workload& w, SpanLog& spans, std::uint32_t parent,
                   std::map<std::string, double>& out) {
  const auto& c = w.nbody;
  const auto bodies = o2k::nbody::make_plummer(c.n, c.seed);
  out["nbody.tree_build_ms"] = timed("nbody.tree_build", spans, parent, [&] {
    const double t0 = now_s();
    const o2k::nbody::Octree tree(bodies);
    const double dt = now_s() - t0;
    if (tree.cells().empty()) return 0.0;
    return 1e3 * dt;
  });
  const o2k::nbody::Octree tree(bodies);
  const std::size_t stride = std::max<std::size_t>(1, bodies.size() / 1024);
  out["nbody.force_ns_per_interaction"] = timed("nbody.force", spans, parent, [&] {
    o2k::nbody::WalkStats st;
    double sink = 0.0;
    const double t0 = now_s();
    for (std::size_t i = 0; i < bodies.size(); i += stride) {
      sink += tree.accel(bodies[i], bodies, c.theta, c.eps, st).x;
    }
    const double dt = now_s() - t0;
    return sink == sink && st.interactions() > 0 ? 1e9 * dt / static_cast<double>(st.interactions())
                                                 : 0.0;
  });
}

void mesh_timings(const Workload& w, SpanLog& spans, std::uint32_t parent,
                  std::map<std::string, double>& out) {
  const auto& c = w.mesh;
  const o2k::mesh::TetMesh base = o2k::mesh::make_box_mesh(c.nx, c.ny, c.nz, c.scale);
  const o2k::mesh::SphereFront front{c.front_center(0), c.front_radius(), c.front_width()};
  auto marks = o2k::mesh::mark_edges(base, front);
  o2k::mesh::close_marks(base, marks);
  o2k::mesh::TetMesh refined = base;
  out["mesh.refine_ns_per_tet"] = timed("mesh.refine", spans, parent, [&] {
    refined = base;
    const double t0 = now_s();
    const auto st = o2k::mesh::refine(refined, marks);
    const double dt = now_s() - t0;
    return st.new_tets > 0 ? 1e9 * dt / static_cast<double>(st.new_tets) : 0.0;
  });
  std::vector<o2k::plum::Element> elems;
  for (const auto t : refined.alive_ids()) elems.push_back({refined.centroid(t), 1.0});
  out["plum.rib_ms"] = timed("plum.rib", spans, parent, [&] {
    const double t0 = now_s();
    const auto part = o2k::plum::rib_partition(elems, w.P);
    return part.size() == elems.size() ? 1e3 * (now_s() - t0) : 0.0;
  });
}

void dht_timings(const Workload& w, SpanLog& spans, std::uint32_t parent,
                 std::map<std::string, double>& out) {
  const auto& c = w.dht;
  const int M = c.nodes_per_pe * w.P;
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(M), 1);
  const auto before = o2k::dht::Ring::build(alive);
  std::vector<o2k::dht::NodeId> reps;
  out["dht.replicas_ns"] = timed("dht.replicas", spans, parent, [&] {
    std::size_t n = 0;
    const double t0 = now_s();
    for (std::uint32_t k = 0; k < c.keys; ++k) {
      before.replicas(k, c.replicas, reps);
      n += reps.size();
    }
    const double dt = now_s() - t0;
    return n > 0 ? 1e9 * dt / c.keys : 0.0;
  });
  const auto ev = o2k::dht::churn_event(alive, M / 2, c.seed, 0);
  if (ev) alive[ev->node] = ev->fail ? 0 : 1;
  const auto after = o2k::dht::Ring::build(alive);
  out["dht.plan_repair_ms"] = timed("dht.plan_repair", spans, parent, [&] {
    const double t0 = now_s();
    const auto plan = o2k::dht::plan_repair(before, after, c.keys, c.replicas);
    const double dt = now_s() - t0;
    return plan.size() < c.keys * 8ULL ? 1e3 * dt : 0.0;
  });
}

}  // namespace

std::map<std::string, double> micro_timings(const Workload& w, std::uint64_t seed,
                                            o2k::rt::Machine& machine, SpanLog& spans,
                                            std::uint32_t parent) {
  std::map<std::string, double> out;
  runtime_timings(w, machine, spans, parent, out);
  // Every kernel on every workload, so that each per-layer metric exists
  // (and is not 0) wherever it is compared.
  nbody_timings(make_workload("nbody-p64", seed), spans, parent, out);
  mesh_timings(make_workload("mesh-p64", seed), spans, parent, out);
  dht_timings(make_workload("dht-churn-p256", seed), spans, parent, out);
  return out;
}

}  // namespace o2kbench
