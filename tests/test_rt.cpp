// Tests for the virtual-time execution substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "apps/dht_app.hpp"
#include "apps/mesh_app.hpp"
#include "apps/nbody_app.hpp"
#include "metrics/sink.hpp"
#include "mp/comm.hpp"
#include "rt/machine.hpp"

namespace o2k::rt {
namespace {

TEST(Machine, SinglePeRunsInline) {
  Machine m;
  auto rr = m.run(1, [](Pe& pe) {
    EXPECT_EQ(pe.rank(), 0);
    EXPECT_EQ(pe.size(), 1);
    pe.advance(123.0);
  });
  EXPECT_EQ(rr.nprocs, 1);
  EXPECT_DOUBLE_EQ(rr.makespan_ns, 123.0);
}

// A single-PE run goes through the fiber engine like any other: it runs on
// worker 0 (the calling thread), is fork-safe at its checkpoint
// rendezvous, and an armed checkpoint fires there.
TEST(Machine, SinglePeRunsOnTheEngine) {
  Machine m;
  bool fork_safe = false;
  m.arm_checkpoint("mark", 1, [&](Machine& mm, Pe& pe) { fork_safe = mm.fork_safe(pe.rank()); });
  int worker = -1;
  const auto rr = m.run(1, [&](Pe& pe) {
    worker = pe.host_worker();
    pe.advance(5.0);
    pe.checkpoint("mark");
  });
  m.disarm_checkpoint();
  EXPECT_EQ(worker, 0);
  EXPECT_EQ(m.workers(), 1);
  EXPECT_TRUE(m.checkpoint_fired());
  EXPECT_TRUE(fork_safe);
  EXPECT_DOUBLE_EQ(rr.makespan_ns, 5.0);
}

// With no override the domain count is one worker per hardware thread,
// clamped to the node count; O2K_WORKERS and set_workers override it.
TEST(Machine, DefaultWorkersAreMinOfNodesAndHardwareThreads) {
  const char* saved = std::getenv("O2K_WORKERS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("O2K_WORKERS");
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  Machine m;  // two PEs per node
  for (int p : {1, 2, 3, 8, 64}) {
    m.run(p, [](Pe&) {});
    EXPECT_EQ(m.workers(), std::min((p + 1) / 2, hw)) << "P=" << p;
  }
  ::setenv("O2K_WORKERS", "2", 1);
  m.run(64, [](Pe&) {});
  EXPECT_EQ(m.workers(), 2);
  m.set_workers(4);
  m.run(64, [](Pe&) {});
  EXPECT_EQ(m.workers(), 4);
  if (saved != nullptr) {
    ::setenv("O2K_WORKERS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("O2K_WORKERS");
  }
}

TEST(Machine, RejectsBadProcCounts) {
  Machine m;
  EXPECT_THROW(m.run(0, [](Pe&) {}), std::invalid_argument);
  EXPECT_THROW(m.run(65, [](Pe&) {}), std::invalid_argument);
}

TEST(Machine, MakespanIsMaxOverPes) {
  Machine m;
  auto rr = m.run(4, [](Pe& pe) { pe.advance(100.0 * (pe.rank() + 1)); });
  EXPECT_DOUBLE_EQ(rr.makespan_ns, 400.0);
  ASSERT_EQ(rr.pe_ns.size(), 4u);
  EXPECT_DOUBLE_EQ(rr.pe_ns[0], 100.0);
  EXPECT_DOUBLE_EQ(rr.pe_ns[3], 400.0);
}

TEST(Machine, NegativeAdvanceRejected) {
  Machine m;
  EXPECT_THROW(m.run(1, [](Pe& pe) { pe.advance(-1.0); }), std::invalid_argument);
}

TEST(Machine, BarrierSynchronisesClocksToMaxPlusCost) {
  Machine m;
  auto rr = m.run(4, [](Pe& pe) {
    pe.advance(50.0 * (pe.rank() + 1));  // clocks: 50, 100, 150, 200
    pe.barrier(10.0);
    EXPECT_DOUBLE_EQ(pe.now(), 210.0);
  });
  EXPECT_DOUBLE_EQ(rr.makespan_ns, 210.0);
}

TEST(Machine, RepeatedBarriersStayConsistent) {
  Machine m;
  auto rr = m.run(8, [](Pe& pe) {
    for (int i = 0; i < 50; ++i) {
      pe.advance(static_cast<double>((pe.rank() * 7 + i * 13) % 10));
      pe.barrier(1.0);
    }
    const double t = pe.now();
    pe.barrier(0.0);
    // After a zero-cost barrier all clocks are equal to the same max.
    EXPECT_GE(pe.now(), t);
  });
  // All PEs end at the same time after a final barrier.
  for (double t : rr.pe_ns) EXPECT_DOUBLE_EQ(t, rr.pe_ns[0]);
}

TEST(Machine, SyncAtLeastNeverRewinds) {
  Machine m;
  m.run(1, [](Pe& pe) {
    pe.advance(100.0);
    pe.sync_at_least(50.0);
    EXPECT_DOUBLE_EQ(pe.now(), 100.0);
    pe.sync_at_least(150.0);
    EXPECT_DOUBLE_EQ(pe.now(), 150.0);
  });
}

TEST(Machine, PhasesAccumulatePerPe) {
  Machine m;
  auto rr = m.run(2, [](Pe& pe) {
    {
      auto ph = pe.phase("alpha");
      pe.advance(100.0 + 100.0 * pe.rank());
    }
    {
      auto ph = pe.phase("beta");
      pe.advance(10.0);
    }
    {
      auto ph = pe.phase("alpha");
      pe.advance(1.0);
    }
  });
  EXPECT_DOUBLE_EQ(rr.phases.at("alpha").max_ns, 201.0);
  EXPECT_DOUBLE_EQ(rr.phases.at("alpha").min_ns, 101.0);
  EXPECT_DOUBLE_EQ(rr.phases.at("alpha").sum_ns, 302.0);
  EXPECT_DOUBLE_EQ(rr.phases.at("beta").max_ns, 10.0);
  EXPECT_DOUBLE_EQ(rr.phase_max("nonexistent"), 0.0);
}

TEST(Machine, PhaseImbalanceComputed) {
  Machine m;
  auto rr = m.run(4, [](Pe& pe) {
    auto ph = pe.phase("work");
    pe.advance(pe.rank() == 0 ? 400.0 : 100.0);
  });
  // avg = 175, max = 400 → imbalance ≈ 2.2857
  EXPECT_NEAR(rr.phases.at("work").imbalance(4), 400.0 / 175.0, 1e-12);
}

TEST(Machine, CountersSummedAcrossPes) {
  Machine m;
  auto rr = m.run(4, [](Pe& pe) { pe.add_counter("events", static_cast<std::uint64_t>(pe.rank())); });
  EXPECT_EQ(rr.counter("events"), 0u + 1 + 2 + 3);
  EXPECT_EQ(rr.counter("none"), 0u);
}

TEST(Machine, ExceptionPropagatesFromPe) {
  Machine m;
  EXPECT_THROW(m.run(4,
                     [](Pe& pe) {
                       pe.barrier(0.0);
                       if (pe.rank() == 2) throw std::runtime_error("worker failed");
                       // Other PEs block here; the abort must release them.
                       pe.barrier(0.0);
                     }),
               std::runtime_error);
}

TEST(Machine, ReusableAcrossRuns) {
  Machine m;
  auto r1 = m.run(2, [](Pe& pe) { pe.advance(10.0); });
  auto r2 = m.run(8, [](Pe& pe) { pe.advance(20.0); });
  EXPECT_DOUBLE_EQ(r1.makespan_ns, 10.0);
  EXPECT_DOUBLE_EQ(r2.makespan_ns, 20.0);
  // Recovers after a failed run, too.
  EXPECT_THROW(m.run(2, [](Pe&) { throw std::runtime_error("x"); }), std::runtime_error);
  auto r3 = m.run(4, [](Pe& pe) { pe.advance(1.0); });
  EXPECT_DOUBLE_EQ(r3.makespan_ns, 1.0);
}

class MachineP : public ::testing::TestWithParam<int> {};

TEST_P(MachineP, DeterministicMakespanWithBarriers) {
  const int p = GetParam();
  Machine m;
  auto body = [](Pe& pe) {
    for (int i = 0; i < 20; ++i) {
      pe.advance(static_cast<double>((pe.rank() + 1) * (i + 1)));
      pe.barrier(5.0);
    }
  };
  const auto r1 = m.run(p, body);
  const auto r2 = m.run(p, body);
  EXPECT_DOUBLE_EQ(r1.makespan_ns, r2.makespan_ns);
  EXPECT_EQ(r1.pe_ns, r2.pe_ns);
}

TEST_P(MachineP, BarrierCostChargedOnce) {
  const int p = GetParam();
  Machine m;
  auto rr = m.run(p, [](Pe& pe) { pe.barrier(100.0); });
  EXPECT_DOUBLE_EQ(rr.makespan_ns, 100.0);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, MachineP, ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64));

// ---------------------------------------------------------------------------
// Scheduler neutrality: the event-driven wait machinery must not perturb any
// measured quantity.  Golden fixtures were recorded from the pre-change
// (bounded-poll) substrate; every app × model smoke config must reproduce
// them bit-identically — per-PE final clocks, phase stats, counters, and the
// sink-observed comm-matrix totals — with and without a metrics sink.
//
// Regenerate (only when a cost-model change *intends* to move numbers):
//   O2K_WRITE_GOLDEN=1 ./test_rt --gtest_filter='SubstrateGolden.*'
// ---------------------------------------------------------------------------

namespace golden {

/// Per-PE tallies of every sink callback plus comm-matrix byte totals.
/// Strictly per-PE state (see the Sink threading contract); summed at the
/// end of the run on the aggregating thread.
class CountingSink final : public metrics::Sink {
 public:
  explicit CountingSink(int nprocs) : per_pe_(static_cast<std::size_t>(nprocs)) {}

  void on_phase_begin(int pe, std::string_view, double) override { ++at(pe).phase_events; }
  void on_phase_end(int pe, std::string_view, double) override { ++at(pe).phase_events; }
  void on_counter(int pe, std::string_view, std::uint64_t, double) override {
    ++at(pe).counter_events;
  }
  void on_message(int pe, int, int, std::uint64_t bytes, double, bool in_matrix) override {
    ++at(pe).message_events;
    if (in_matrix) {
      ++at(pe).matrix_msgs;
      at(pe).matrix_bytes += bytes;
    }
  }
  void on_barrier(int pe, double, double) override { ++at(pe).barrier_events; }

  [[nodiscard]] std::string summary() const {
    std::uint64_t phase = 0, counter = 0, message = 0, barrier = 0, mm = 0, mb = 0;
    for (const auto& s : per_pe_) {
      phase += s.phase_events;
      counter += s.counter_events;
      message += s.message_events;
      barrier += s.barrier_events;
      mm += s.matrix_msgs;
      mb += s.matrix_bytes;
    }
    std::ostringstream os;
    os << "sink phase=" << phase << " counter=" << counter << " message=" << message
       << " barrier=" << barrier << " matrix_msgs=" << mm << " matrix_bytes=" << mb << "\n";
    return os.str();
  }

 private:
  struct alignas(64) PerPe {
    std::uint64_t phase_events = 0;
    std::uint64_t counter_events = 0;
    std::uint64_t message_events = 0;
    std::uint64_t barrier_events = 0;
    std::uint64_t matrix_msgs = 0;
    std::uint64_t matrix_bytes = 0;
  };
  PerPe& at(int pe) { return per_pe_[static_cast<std::size_t>(pe)]; }
  std::vector<PerPe> per_pe_;
};

struct Case {
  const char* app;
  apps::Model model;
  int p;
};

// Every app × model × P is covered, mesh/CC-SAS included: the remesher's
// cross-PE updates are order-independent RMWs charged at each key's home
// slot and its vertex/tet ids come from per-PE prefix ranges (see
// src/apps/sas_table.hpp and src/apps/mesh_sas.cpp), so all measured
// quantities are pure functions of the input, bit-reproducible at every P.
inline std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* app : {"nbody", "mesh", "dht"}) {
    for (auto model : {apps::Model::kMp, apps::Model::kShmem, apps::Model::kSas}) {
      for (int p : {1, 5, 8}) {
        out.push_back({app, model, p});
      }
    }
  }
  for (auto model : {apps::Model::kMp, apps::Model::kShmem, apps::Model::kSas}) {
    out.push_back({"dht", model, 64});
  }
  return out;
}

inline std::string case_key(const Case& c) {
  return std::string("== ") + c.app + " " + apps::model_slug(c.model) + " p" +
         std::to_string(c.p);
}

/// Exact textual form of everything the run measured (hexfloat doubles, so
/// equality means bit-equality).
inline std::string canonical(const RunResult& rr) {
  std::ostringstream os;
  char buf[96];
  for (std::size_t r = 0; r < rr.pe_ns.size(); ++r) {
    std::snprintf(buf, sizeof buf, "clock %zu %a\n", r, rr.pe_ns[r]);
    os << buf;
  }
  for (const auto& [name, agg] : rr.phases) {
    std::snprintf(buf, sizeof buf, " max=%a min=%a sum=%a pes=%d\n", agg.max_ns, agg.min_ns,
                  agg.sum_ns, agg.pes);
    os << "phase " << name << buf;
  }
  for (const auto& [name, v] : rr.counters) os << "counter " << name << " " << v << "\n";
  return os.str();
}

inline apps::DhtConfig dht_smoke_config() {
  apps::DhtConfig cfg;
  cfg.requests = 6000;
  cfg.keys = 512;
  cfg.window = 256;
  cfg.churn_every = 1500;
  return cfg;
}

/// The P=64 dht cases churn every 750 requests: seven membership events
/// over 256 overlay nodes pin the repair plans and replica walks at width.
inline apps::DhtConfig dht_golden_config(int p) {
  apps::DhtConfig cfg = dht_smoke_config();
  if (p == 64) cfg.churn_every = 750;
  return cfg;
}

inline RunResult run_case(const Case& c, Machine& machine) {
  if (std::string(c.app) == "nbody") {
    apps::NbodyConfig cfg;
    cfg.n = 2048;
    cfg.steps = 2;
    return apps::run_nbody(c.model, machine, c.p, cfg).run;
  }
  if (std::string(c.app) == "dht") {
    return apps::run_dht(c.model, machine, c.p, dht_golden_config(c.p)).run;
  }
  apps::MeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.phases = 2;
  return apps::run_mesh(c.model, machine, c.p, cfg).run;
}

inline RunResult run_case(const Case& c, metrics::Sink* sink) {
  Machine machine;
  machine.set_sink(sink);
  return run_case(c, machine);
}

/// Parse the fixture into per-case sections keyed by their "== ..." header.
inline std::map<std::string, std::string> load_fixture(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, std::string> out;
  std::string line, key;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      key = line;
    } else if (!key.empty()) {
      out[key] += line + "\n";
    }
  }
  return out;
}

}  // namespace golden

TEST(SubstrateGolden, AppRunsMatchPreChangeFixtureAndSinkIsNeutral) {
  const std::string path = O2K_GOLDEN_FILE;
  const bool write = std::getenv("O2K_WRITE_GOLDEN") != nullptr;
  auto fixture = golden::load_fixture(path);
  std::ostringstream regenerated;
  regenerated << "# Golden substrate fixture (o2k.substrate_golden.v1).\n"
              << "# Recorded from the pre-event-driven (bounded-poll) scheduler; every\n"
              << "# value is virtual-time only and must stay bit-identical across\n"
              << "# host-side scheduler changes.  Doubles are hexfloats.\n";
  for (const auto& c : golden::cases()) {
    const std::string key = golden::case_key(c);
    SCOPED_TRACE(key);

    const RunResult bare = golden::run_case(c, nullptr);
    golden::CountingSink sink(c.p);
    const RunResult with_sink = golden::run_case(c, &sink);

    // Sink neutrality: attaching an observer changes no measured value.
    EXPECT_EQ(golden::canonical(bare), golden::canonical(with_sink));

    const std::string body = golden::canonical(bare) + sink.summary();
    regenerated << key << "\n" << body;
    if (write) continue;
    ASSERT_TRUE(fixture.count(key)) << "fixture section missing; regenerate with "
                                       "O2K_WRITE_GOLDEN=1 (see comment above)";
    EXPECT_EQ(fixture[key], body);
  }
  if (write) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << regenerated.str();
  }
}

// P=64 worker determinism: at full machine width, every measured value —
// clocks, phase aggregates, counters — must be identical across host
// worker counts {1, 2, 4}, and across repeated runs, for every app and
// model (mesh/CC-SAS included — see the note above cases()).
TEST(SubstrateGolden, P64WorkerDeterminism) {
  for (const char* app : {"nbody", "mesh", "dht"}) {
    for (auto model : {apps::Model::kMp, apps::Model::kShmem, apps::Model::kSas}) {
      const golden::Case c{app, model, 64};
      SCOPED_TRACE(golden::case_key(c));
      auto run_with = [&](int workers) {
        Machine machine;
        machine.set_workers(workers);
        if (std::string(c.app) == "nbody") {
          apps::NbodyConfig cfg;
          cfg.n = 2048;
          cfg.steps = 2;
          return golden::canonical(apps::run_nbody(c.model, machine, c.p, cfg).run);
        }
        if (std::string(c.app) == "dht") {
          return golden::canonical(
              apps::run_dht(c.model, machine, c.p, golden::dht_smoke_config()).run);
        }
        apps::MeshConfig cfg;
        cfg.nx = cfg.ny = cfg.nz = 6;
        cfg.phases = 2;
        return golden::canonical(apps::run_mesh(c.model, machine, c.p, cfg).run);
      };
      const std::string base = run_with(1);
      EXPECT_EQ(base, run_with(2)) << "workers=2 disagrees with workers=1";
      EXPECT_EQ(base, run_with(4)) << "workers=4 disagrees with workers=1";
      EXPECT_EQ(base, run_with(4)) << "workers=4 not reproducible";
    }
  }
}

// ---------------------------------------------------------------------------
// DomainDeterminism: sharding a run into synchronization domains
// (O2K_WORKERS, DESIGN.md §11) is a host-side scheduling decision and must
// not move any measured value.  Every golden case must reproduce
// bit-identically across worker counts {1, 2, 4}, and repeat at each —
// the workers=1 result is itself pinned to the committed fixture by
// SubstrateGolden above, so equality here chains all the way back to the
// pre-change substrate.
// ---------------------------------------------------------------------------

TEST(DomainDeterminism, GoldenCasesBitIdenticalAcrossWorkers) {
  for (const char* app : {"nbody", "mesh", "dht"}) {
    for (auto model : {apps::Model::kMp, apps::Model::kShmem, apps::Model::kSas}) {
      const golden::Case c{app, model, 8};  // 4 nodes -> up to 4 domains
      SCOPED_TRACE(golden::case_key(c));
      auto run_with = [&](int workers) {
        Machine machine;
        machine.set_workers(workers);
        return golden::canonical(golden::run_case(c, machine));
      };
      const std::string base = run_with(1);
      for (int w : {1, 2, 4}) {
        EXPECT_EQ(base, run_with(w)) << "virtual time moved at workers=" << w;
      }
    }
  }
}

// End-of-run wake stress: every fiber does a fraction of a microsecond of
// host work, so the four workers drain their ranks at nearly the same moment
// and the last finisher's wake races the others going to sleep.  A worker
// that reads its sleep epoch after that wake must still see the run
// complete; otherwise it sleeps forever and this test hangs until the ctest
// timeout.  Without that re-check in the worker loop, this test hung in
// two of five attempts on a 4-core x86-64 host.  Skipped under TSan: its
// 60000 runs do not finish within 1800 s there.
TEST(DomainDeterminism, PinnedRunEndNeverLosesTheFinalWake) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "too slow under ThreadSanitizer";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "too slow under ThreadSanitizer";
#endif
#endif
  Machine machine;
  machine.set_workers(4);
  for (int i = 0; i < 60000; ++i) {
    const auto rr = machine.run(64, [](Pe&) {
      volatile int sink = 0;
      for (int j = 0; j < 200; ++j) sink = sink + j;
    });
    ASSERT_EQ(rr.pe_ns.size(), 64u);
  }
}

// Cross-domain wake stress: MP any-tag traffic where every message crosses
// a domain boundary (rank r talks to r + P/2, always a different node
// slice), with deterministic per-(rank, i) think time skewing the domains'
// clocks so receivers genuinely park and the SPSC mailbox + sleep
// eventcount path must deliver every wake.  Payload sums prove no message
// was lost or duplicated; canonical() equality proves virtual time never
// noticed the domain decomposition.
TEST(DomainDeterminism, CrossDomainAnyTagWakeStress) {
  constexpr int kP = 8;
  constexpr int kMsgs = 200;
  auto run_with = [&](int workers) {
    Machine machine;
    machine.set_workers(workers);
    mp::World w(machine.params(), kP);
    std::vector<std::uint64_t> sums(kP, 0);
    auto rr = machine.run(kP, [&](Pe& pe) {
      mp::Comm comm(w, pe);
      const int me = pe.rank();
      const int peer = (me + kP / 2) % kP;
      std::uint64_t sum = 0;
      for (int i = 0; i < kMsgs; ++i) {
        pe.advance(static_cast<double>((me * 7919 + i * 104729) % 251));
        const std::uint64_t payload = static_cast<std::uint64_t>(me) * 100000 + i;
        comm.post_bytes(std::as_bytes(std::span(&payload, 1)), peer, i % 5);
        auto raw = comm.recv_bytes(peer, mp::kAnyTag);
        ASSERT_EQ(raw.size(), sizeof(std::uint64_t));
        std::uint64_t got = 0;
        std::memcpy(&got, raw.data(), sizeof got);
        sum += got;
      }
      sums[static_cast<std::size_t>(me)] = sum;
    });
    return std::pair(golden::canonical(rr), sums);
  };

  const auto [base, base_sums] = run_with(1);
  for (int me = 0; me < kP; ++me) {
    const std::uint64_t peer = static_cast<std::uint64_t>((me + kP / 2) % kP);
    const std::uint64_t expect =
        kMsgs * peer * 100000 + std::uint64_t{kMsgs} * (kMsgs - 1) / 2;
    EXPECT_EQ(base_sums[static_cast<std::size_t>(me)], expect) << "rank " << me;
  }
  for (int w : {1, 2, 4}) {
    const auto [canon, sums] = run_with(w);
    EXPECT_EQ(base, canon) << "virtual time moved at workers=" << w;
    EXPECT_EQ(base_sums, sums);
  }
}

// ---------------------------------------------------------------------------
// Collective fence (Pe::collective_fence, DESIGN.md §13): the host
// rendezvous at the exit of MP's synchronizing collectives.  It is
// clock-neutral, so every committed golden case must reproduce its fixture
// bit-for-bit at W in {1, 2, 4} — and the fence must be live exactly where
// it matters (MP runs at W > 1 complete fence rounds; W = 1 completes
// none), so it can never silently rot.
// ---------------------------------------------------------------------------

TEST(DomainDeterminism, GoldenFixtureBitIdenticalWithCollectiveFence) {
  auto fixture = golden::load_fixture(O2K_GOLDEN_FILE);
  for (const auto& c : golden::cases()) {
    const std::string key = golden::case_key(c);
    SCOPED_TRACE(key);
    ASSERT_TRUE(fixture.count(key)) << "fixture section missing";
    const std::string& body = fixture[key];
    const std::string want = body.substr(0, body.rfind("sink "));
    for (int w : {1, 2, 4}) {
      if (w > c.p) continue;
      Machine machine;
      machine.set_workers(w);
      EXPECT_EQ(want, golden::canonical(golden::run_case(c, machine))) << "workers=" << w;
      if (c.model != apps::Model::kMp) continue;
      if (machine.workers() > 1) {
        EXPECT_GT(machine.fence_rounds(), 0u) << "fence inert at workers=" << w;
      } else {
        EXPECT_EQ(machine.fence_rounds(), 0u) << "fence live at workers=" << w;
      }
    }
  }
}

/// Counts completed two-sided receives per rank (Pe::trace_recv fires
/// on_message on the receiving PE) in host atomics, so any PE can read how
/// far every other PE has got.  Observer-only, like every sink.
class RecvCountingSink final : public metrics::Sink {
 public:
  explicit RecvCountingSink(int nprocs) : recvs_(static_cast<std::size_t>(nprocs)) {}
  void on_phase_begin(int, std::string_view, double) override {}
  void on_phase_end(int, std::string_view, double) override {}
  void on_counter(int, std::string_view, std::uint64_t, double) override {}
  void on_barrier(int, double, double) override {}
  void on_message(int pe, int src, int dst, std::uint64_t, double, bool) override {
    if (pe == dst && src != dst)
      recvs_[static_cast<std::size_t>(pe)].fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t recvs(int r) const {
    return recvs_[static_cast<std::size_t>(r)].load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<std::uint64_t>> recvs_;
};

// The fence's contract, observed from outside: when alltoallv, allgatherv,
// allreduce_sum or barrier returns on any rank at W = 4, every rank has
// already completed its receives for that collective.  (Without the fence a
// rank that leaves an exchange early runs on while peers of its own domain
// are still inside it — the pinned-worker convoy.)  The per-rank receive
// count at each collective's exit is a pure function of the collective
// algorithms, so a W = 1 run records it and the W = 2 and W = 4 runs check
// it at every exit.  At W = 1 the fence is inert (alltoallv's own exit
// rendezvous is live everywhere, but is no fence round).
TEST(CollectiveFence, EveryRankHasReceivedWhenACollectiveReturns) {
  constexpr int kP = 16;
  constexpr int kIters = 8;
  constexpr int kColls = 4;  // alltoallv, allgatherv, allreduce_sum, barrier
  constexpr int kExits = kIters * kColls;
  // want[e][r]: rank r's cumulative receives when it leaves exit e.
  std::vector<std::vector<std::uint64_t>> want(kExits, std::vector<std::uint64_t>(kP, 0));
  std::atomic<int> violations[kColls]{};

  auto run_with = [&](int workers, bool record) {
    Machine machine;
    machine.set_workers(workers);
    RecvCountingSink sink(kP);
    machine.set_sink(&sink);
    mp::World world(machine.params(), kP);
    const RunResult rr = machine.run(kP, [&](Pe& pe) {
      mp::Comm comm(world, pe);
      const int me = pe.rank();
      std::size_t exit_no = 0;
      auto at_exit = [&](int coll) {
        auto& row = want[exit_no++];
        if (record) {
          row[static_cast<std::size_t>(me)] = sink.recvs(me);
          return;
        }
        for (int q = 0; q < kP; ++q) {
          if (sink.recvs(q) < row[static_cast<std::size_t>(q)]) {
            violations[coll].fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      };
      for (int i = 0; i < kIters; ++i) {
        // Skewed compute so ranks reach each collective at different times.
        pe.advance(static_cast<double>(((me * 7 + i * 13) % 11) * 1000));
        const std::vector<std::vector<int>> out(
            kP, std::vector<int>(static_cast<std::size_t>(me % 3 + 1), me));
        const auto in = comm.alltoallv(out);
        EXPECT_EQ(in[static_cast<std::size_t>((me + 1) % kP)].front(), (me + 1) % kP);
        at_exit(0);
        const std::vector<int> mine(static_cast<std::size_t>(me % 4 + 1), me);
        (void)comm.allgatherv(std::span<const int>(mine));
        at_exit(1);
        EXPECT_EQ(comm.allreduce_sum(me), kP * (kP - 1) / 2);
        at_exit(2);
        comm.barrier();
        at_exit(3);
      }
    });
    machine.set_sink(nullptr);
    return std::pair(golden::canonical(rr), machine.fence_rounds());
  };

  const auto [base, base_rounds] = run_with(1, /*record=*/true);
  EXPECT_EQ(base_rounds, 0u) << "fence must be inert at W = 1";

  const char* names[kColls] = {"alltoallv", "allgatherv", "allreduce_sum", "barrier"};
  for (int w : {2, 4}) {
    for (auto& v : violations) v.store(0);
    const auto [canon, rounds] = run_with(w, /*record=*/false);
    EXPECT_EQ(base, canon) << "W = " << w;
    // alltoallv ends in its own always-on exit rendezvous instead of the
    // fence, so only the other three collectives complete fence rounds.
    EXPECT_EQ(rounds, static_cast<std::uint64_t>(kIters * (kColls - 1))) << "W = " << w;
    for (int k = 0; k < kColls; ++k) {
      EXPECT_EQ(violations[k].load(), 0)
          << names[k] << " returned before every rank received at W = " << w;
    }
  }
}

}  // namespace
}  // namespace o2k::rt
