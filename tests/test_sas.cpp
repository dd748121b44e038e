// Tests for the CC-SAS runtime: placement, cache/coherence premiums,
// synchronisation and parallel loops.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "metrics/sink.hpp"
#include "sanitize/sanitize.hpp"
#include "sas/sas.hpp"

namespace o2k::sas {
namespace {

rt::Machine& machine() {
  static rt::Machine m;
  return m;
}

constexpr std::size_t kArena = std::size_t{16} << 20;

TEST(SasWorld, AllocationsArePageAligned) {
  World w(machine().params(), 2, kArena);
  auto a = w.alloc<double>(3);
  auto b = w.alloc<double>(3);
  const auto page = static_cast<std::size_t>(machine().params().page_bytes);
  EXPECT_EQ(a.offset % page, 0u);
  EXPECT_EQ(b.offset % page, 0u);
  EXPECT_NE(a.offset, b.offset);
}

TEST(SasWorld, ArenaExhaustionDetected) {
  World w(machine().params(), 1, std::size_t{1} << 20);
  EXPECT_THROW((void)w.alloc<double>(10'000'000), std::invalid_argument);
}

TEST(SasWorld, SharedDataVisibleToAllPes) {
  World w(machine().params(), 4, kArena);
  auto arr = w.alloc<int>(4);
  machine().run(4, [&](rt::Pe& pe) {
    Team team(w, pe);
    team.write(arr, static_cast<std::size_t>(pe.rank()), pe.rank() * 3);
    team.barrier();
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(team.read(arr, i), static_cast<int>(i) * 3);
    }
  });
}

TEST(SasCache, HitsAreFreeMissesLocalFree) {
  World w(machine().params(), 2, kArena);
  auto arr = w.alloc<double>(1024);
  machine().run(2, [&](rt::Pe& pe) {
    Team team(w, pe);
    if (pe.rank() == 0) {
      // First touch homes the pages on PE 0's node; PE 1 shares the node
      // (2 PEs per node) so neither pays a remote premium.
      const double t0 = pe.now();
      team.touch_read_range(arr, 0, 1024);
      EXPECT_DOUBLE_EQ(pe.now(), t0);  // local misses are folded into kernels
      const double t1 = pe.now();
      team.touch_read_range(arr, 0, 1024);  // all hits now
      EXPECT_DOUBLE_EQ(pe.now(), t1);
    }
    team.barrier();
  });
}

TEST(SasCache, RemoteMissChargesPremium) {
  World w(machine().params(), 8, kArena);
  auto arr = w.alloc<double>(4096);
  machine().run(8, [&](rt::Pe& pe) {
    Team team(w, pe);
    if (pe.rank() == 0) team.touch_read_range(arr, 0, 4096);  // first-touch → node 0
    team.barrier();
    if (pe.rank() == 6) {  // node 3: remote
      const double t0 = pe.now();
      team.touch_read_range(arr, 0, 4096);
      EXPECT_GT(pe.now(), t0);
    }
    team.barrier();
  });
}

TEST(SasCache, InvalidationForcesRefetch) {
  World w(machine().params(), 8, kArena);
  auto arr = w.alloc<double>(16);
  std::array<double, 3> cost{};
  machine().run(8, [&](rt::Pe& pe) {
    Team team(w, pe);
    if (pe.rank() == 6) {
      const double t0 = pe.now();
      team.touch_read_range(arr, 0, 16);  // first touch homes remotely? no — PE6 touches first
      cost[0] = pe.now() - t0;
    }
    team.barrier();
    if (pe.rank() == 0) team.touch_write_range(arr, 0, 16);  // invalidates PE6's copy
    team.barrier();
    if (pe.rank() == 6) {
      const double t1 = pe.now();
      team.touch_read_range(arr, 0, 16);  // stale → miss again (home = PE6: local)
      cost[1] = pe.now() - t1;
      const double t2 = pe.now();
      team.touch_read_range(arr, 0, 16);  // now cached
      cost[2] = pe.now() - t2;
    }
    team.barrier();
  });
  // First touch by PE6 = local, free; after PE0's write the line version
  // changed so PE6 re-misses (still local home, so premium 0) — but the
  // version-based invalidation must at least not *increase* costs for the
  // cached case.
  EXPECT_DOUBLE_EQ(cost[2], 0.0);
}

TEST(SasCache, OwnershipTransferChargedOnSharedWrites) {
  World w(machine().params(), 4, kArena);
  auto arr = w.alloc<double>(4);  // one cache line
  std::array<double, 2> cost{};
  machine().run(4, [&](rt::Pe& pe) {
    Team team(w, pe);
    if (pe.rank() == 0) {
      const double t0 = pe.now();
      team.touch_write_range(arr, 0, 1);
      cost[0] = pe.now() - t0;  // first write: no other writer
    }
    team.barrier();
    if (pe.rank() == 1) {
      const double t0 = pe.now();
      team.touch_write_range(arr, 1, 1);  // same line, last written by PE 0
      cost[1] = pe.now() - t0;
    }
    team.barrier();
  });
  EXPECT_GT(cost[1], cost[0]);  // false sharing pays the ownership premium
}

TEST(SasPlacement, RoundRobinSpreadsPages) {
  World w(machine().params(), 4, kArena, Placement::kRoundRobin);
  auto arr = w.alloc<double>(4 * 16384 / sizeof(double));  // 4 pages
  // Under round-robin, PE 2 (node 1) reading page 0 (home PE 0, node 0)
  // pays a premium even as the first toucher.
  machine().run(4, [&](rt::Pe& pe) {
    Team team(w, pe);
    if (pe.rank() == 2) {
      const double t0 = pe.now();
      team.touch_read_range(arr, 0, 4);
      EXPECT_GT(pe.now(), t0);
    }
    team.barrier();
  });
}

TEST(SasPlacement, ResetHomesRestoresFirstTouch) {
  World w(machine().params(), 8, kArena);
  auto arr = w.alloc<double>(64);
  machine().run(8, [&](rt::Pe& pe) {
    Team team(w, pe);
    if (pe.rank() == 0) team.touch_read_range(arr, 0, 64);
    team.barrier();
    if (pe.rank() == 0) w.reset_homes(arr);
    team.barrier();
    if (pe.rank() == 6) {
      const double t0 = pe.now();
      team.touch_read_range(arr, 0, 64);  // re-first-touched by PE 6 → local
      EXPECT_DOUBLE_EQ(pe.now(), t0);
    }
    team.barrier();
  });
}

TEST(SasSync, LocksSerialiseInVirtualTime) {
  World w(machine().params(), 4, kArena);
  machine().run(4, [&](rt::Pe& pe) {
    Team team(w, pe);
    team.lock(5);
    team.unlock(5);
    team.barrier();
  });
  // Each acquire is serialised behind the previous holder's release: total
  // time at the last PE must cover all four critical sections.
  World w2(machine().params(), 4, kArena);
  auto rr = machine().run(4, [&](rt::Pe& pe) {
    Team team(w2, pe);
    team.lock(1);
    pe.advance(1000.0);
    team.unlock(1);
    team.barrier();
  });
  EXPECT_GE(rr.makespan_ns, 4000.0);
}

TEST(SasSync, ReductionsAreExactAndUniform) {
  World w(machine().params(), 8, kArena);
  std::array<double, 8> results{};
  machine().run(8, [&](rt::Pe& pe) {
    Team team(w, pe);
    results[static_cast<std::size_t>(pe.rank())] =
        team.reduce_sum(static_cast<double>(pe.rank() + 1));
    EXPECT_EQ(team.reduce_sum(static_cast<std::int64_t>(2)), 16);
    EXPECT_DOUBLE_EQ(team.reduce_max(static_cast<double>(pe.rank())), 7.0);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 36.0);
}

TEST(SasLoops, StaticRangeCoversAll) {
  World w(machine().params(), 8, kArena);
  std::atomic<int> total{0};
  machine().run(8, [&](rt::Pe& pe) {
    Team team(w, pe);
    team.parallel_for_static(3, 1003, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 1000);
}

TEST(SasLoops, StaticRangesDisjointAndOrdered) {
  World w(machine().params(), 7, kArena);
  machine().run(7, [&](rt::Pe& pe) {
    Team team(w, pe);
    const auto [lo, hi] = team.static_range(0, 100);
    EXPECT_LE(lo, hi);
    if (pe.rank() == 0) {
      EXPECT_EQ(lo, 0u);
    }
    if (pe.rank() == 6) {
      EXPECT_EQ(hi, 100u);
    }
  });
}

TEST(SasLoops, DynamicExecutesEachIndexOnce) {
  World w(machine().params(), 8, kArena);
  std::vector<std::atomic<int>> hits(500);
  machine().run(8, [&](rt::Pe& pe) {
    Team team(w, pe);
    team.parallel_for_dynamic(0, 500, 16, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      pe.advance(10.0);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SasLoops, DynamicBalancesSkewedWork) {
  // Work is heavily skewed to low indices; dynamic scheduling should keep
  // the virtual makespan well below a static split's.
  const auto work = [](std::size_t i) { return i < 32 ? 10000.0 : 10.0; };
  World w1(machine().params(), 8, kArena);
  auto stat = machine().run(8, [&](rt::Pe& pe) {
    Team team(w1, pe);
    team.parallel_for_static(0, 256, [&](std::size_t i) { pe.advance(work(i)); });
    team.barrier();
  });
  World w2(machine().params(), 8, kArena);
  auto dyn = machine().run(8, [&](rt::Pe& pe) {
    Team team(w2, pe);
    team.parallel_for_dynamic(0, 256, 4, [&](std::size_t i) { pe.advance(work(i)); });
  });
  EXPECT_LT(dyn.makespan_ns, stat.makespan_ns);
}

class SasLoopP : public ::testing::TestWithParam<int> {};

TEST_P(SasLoopP, DynamicCompletesAtAnyProcCount) {
  const int p = GetParam();
  World w(machine().params(), p, kArena);
  std::atomic<long> sum{0};
  machine().run(p, [&](rt::Pe& pe) {
    Team team(w, pe);
    team.parallel_for_dynamic(0, 300, 7, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      pe.advance(static_cast<double>(i % 11) * 5.0);
    });
  });
  EXPECT_EQ(sum.load(), 300L * 299 / 2);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, SasLoopP, ::testing::Values(1, 2, 3, 5, 8, 16));

// ---- read-hit exactness ----------------------------------------------------
// A read that hits charges, counts and emits nothing, so Team skips the
// touch walk for it (and skips add_counter calls that would add 0).  These
// tests pin the observable results against hand-counted per-call
// accounting: RunResult counter keys and values, the sink's counter and
// transfer stream, and the sanitizer's per-touch access count.

/// Per-PE totals of the sink's counter and transfer events.
class TotalsSink : public metrics::Sink {
 public:
  explicit TotalsSink(int p)
      : counters_(static_cast<std::size_t>(p)),
        msgs_(static_cast<std::size_t>(p)),
        bytes_(static_cast<std::size_t>(p)) {}
  void on_phase_begin(int, std::string_view, double) override {}
  void on_phase_end(int, std::string_view, double) override {}
  void on_counter(int pe, std::string_view name, std::uint64_t delta, double) override {
    counters_[static_cast<std::size_t>(pe)][std::string(name)] += delta;
  }
  void on_message(int pe, int, int, std::uint64_t bytes, double, bool) override {
    ++msgs_[static_cast<std::size_t>(pe)];
    bytes_[static_cast<std::size_t>(pe)] += bytes;
  }
  void on_barrier(int, double, double) override {}

  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const {
    std::map<std::string, std::uint64_t> out;
    for (const auto& m : counters_)
      for (const auto& [k, v] : m) out[k] += v;
    return out;
  }
  [[nodiscard]] std::uint64_t msgs() const {
    return std::accumulate(msgs_.begin(), msgs_.end(), std::uint64_t{0});
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return std::accumulate(bytes_.begin(), bytes_.end(), std::uint64_t{0});
  }

 private:
  std::vector<std::map<std::string, std::uint64_t>> counters_;
  std::vector<std::uint64_t> msgs_, bytes_;
};

/// The sas.* entries of a run's counters.
std::map<std::string, std::uint64_t> sas_counters(const rt::RunResult& rr) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : rr.counters)
    if (k.rfind("sas.", 0) == 0) out[k] = v;
  return out;
}

/// Drop zero totals: the sink sees no event for a zero increment.
std::map<std::string, std::uint64_t> nonzero(std::map<std::string, std::uint64_t> m) {
  std::erase_if(m, [](const auto& kv) { return kv.second == 0; });
  return m;
}

struct HitScenario {
  int p = 0;
  Placement placement = Placement::kFirstTouch;
  std::size_t elems = 0;
  std::function<void(Team&, const SharedArray<double>&)> body;
};

/// Runs `sc` plain, with a sink and with a sanitizer, checks that all three
/// agree with each other and with the expected counters, makespan and
/// touch count, and returns the sink's transfer bytes.
std::uint64_t check_hit_scenario(const HitScenario& sc,
                                 const std::map<std::string, std::uint64_t>& expected,
                                 const std::vector<double>& expected_pe_ns,
                                 std::uint64_t expected_touches) {
  const auto run = [&] {
    World w(machine().params(), sc.p, kArena, sc.placement);
    const auto arr = w.alloc<double>(sc.elems);
    return machine().run(sc.p, [&](rt::Pe& pe) {
      Team team(w, pe);
      sc.body(team, arr);
    });
  };
  const rt::RunResult plain = run();
  EXPECT_EQ(sas_counters(plain), expected);
  EXPECT_EQ(plain.pe_ns, expected_pe_ns);

  TotalsSink sink(sc.p);
  machine().set_sink(&sink);
  const rt::RunResult traced = run();
  machine().set_sink(nullptr);
  EXPECT_EQ(sas_counters(traced), expected);
  EXPECT_EQ(traced.pe_ns, expected_pe_ns);
  EXPECT_EQ(nonzero(sink.counters()), nonzero(expected));
  const auto remote = expected.count("sas.remote_misses") ? expected.at("sas.remote_misses") : 0;
  EXPECT_EQ(sink.msgs(), remote);  // one pull per remote line fetch here

  sanitize::Sanitizer san(sanitize::Mode::kReport);
  {
    sanitize::Scope scope(&san);
    const rt::RunResult checked = run();
    EXPECT_EQ(sas_counters(checked), expected);
    EXPECT_EQ(checked.pe_ns, expected_pe_ns);
  }
  EXPECT_EQ(san.stats().sas_accesses, expected_touches);
  EXPECT_EQ(san.finding_count(), 0u);
  return sink.bytes();
}

TEST(SasReadHit, AllTouchesHitAfterTheFirst) {
  // Round-robin placement homes the array's page on PE 0 (node 0); PEs 2
  // and 3 sit on node 1.  Each PE misses the line once (remote for PEs 2
  // and 3) and every later touch, through every read entry point, hits.
  constexpr int kReads = 200;
  HitScenario sc;
  sc.p = 4;
  sc.placement = Placement::kRoundRobin;
  sc.elems = 16;  // one 128-byte line
  sc.body = [](Team& team, const SharedArray<double>& arr) {
    for (int i = 0; i < kReads; ++i) {
      const auto e = static_cast<std::size_t>(i) % 16;
      (void)team.read(arr, e);
      team.touch_read_range(arr, e, 1);
      team.touch_read_fields(arr, e, 1, 0, 4);
      team.touch_read_atomic(arr.offset + e * sizeof(double), sizeof(double));
    }
  };
  const auto& P = machine().params();
  const std::vector<double> pe_ns = {0.0, 0.0, P.remote_read_premium_ns(2, 0),
                                     P.remote_read_premium_ns(3, 0)};
  const std::uint64_t bytes = check_hit_scenario(
      sc, {{"sas.read_misses", 4}, {"sas.remote_misses", 2}}, pe_ns, 4 * 4 * kReads);
  EXPECT_EQ(bytes, 2u * static_cast<std::uint64_t>(P.cache_line_bytes));
}

TEST(SasReadHit, TeamThatNeverReadsRegistersNoCounters) {
  // Compute and barriers, but no touch at all: no sas.* key may appear.
  HitScenario sc;
  sc.p = 4;
  sc.elems = 16;
  sc.body = [](Team& team, const SharedArray<double>&) {
    team.pe().advance(10.0 * team.rank());
    team.barrier();
    team.barrier();
  };
  const double c = origin::MachineParams::tree_barrier_ns(
      4, machine().params().sas_barrier_base_ns);
  check_hit_scenario(sc, {}, std::vector<double>(4, (30.0 + c) + c), 0);
}

TEST(SasReadHit, TeamThatOnlyWritesRegistersOnlyWriteCounters) {
  // Each PE writes its own line many times in two epochs: one local miss
  // in the first epoch, then hits on its own dirty (later committed) copy;
  // no ownership transfer, no remote miss, no premium and no read key.
  constexpr int kWrites = 100;
  HitScenario sc;
  sc.p = 4;
  sc.elems = 4 * 16;
  sc.body = [](Team& team, const SharedArray<double>& arr) {
    const auto base = static_cast<std::size_t>(team.rank()) * 16;
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (int i = 0; i < kWrites; ++i)
        team.write(arr, base + static_cast<std::size_t>(i) % 16, 1.0 * i);
      team.barrier();
    }
  };
  const double c = origin::MachineParams::tree_barrier_ns(
      4, machine().params().sas_barrier_base_ns);
  check_hit_scenario(sc,
                     {{"sas.write_misses", 4},
                      {"sas.remote_misses", 0},
                      {"sas.ownership_transfers", 0}},
                     std::vector<double>(4, c + c), 2 * 4 * kWrites);
}

TEST(SasReadHit, FirstReadThatHitsStillRegistersReadCounters) {
  // The line is resident from the PE's own write, so its first read is
  // already a hit; the read keys must still appear, with value 0.
  HitScenario sc;
  sc.p = 2;
  sc.elems = 2 * 16;
  sc.body = [](Team& team, const SharedArray<double>& arr) {
    const auto base = static_cast<std::size_t>(team.rank()) * 16;
    team.write(arr, base, 1.0);
    for (std::size_t i = 0; i < 16; ++i) (void)team.read(arr, base + i);
  };
  check_hit_scenario(sc,
                     {{"sas.read_misses", 0},
                      {"sas.remote_misses", 0},
                      {"sas.write_misses", 2},
                      {"sas.ownership_transfers", 0}},
                     {0.0, 0.0}, 2 * 17);
}

// ---- dynamic dispatch under the mirror_clock skip --------------------------
// Hits at an unchanged clock skip the mirrored-clock exchange; only a clock
// change publishes.  Interleave such hits with clock advances inside a
// dynamic loop and check that the chunk->PE map and the final clocks never
// vary, across repetitions and worker counts.

struct DispatchOutcome {
  std::vector<int> owner;
  std::vector<double> pe_ns;
  bool operator==(const DispatchOutcome&) const = default;
};

DispatchOutcome run_dispatch_with_hits(rt::Machine& m) {
  constexpr int kP = 8;
  constexpr std::size_t kItems = 96;
  World w(m.params(), kP, std::size_t{1} << 20);
  const auto arr = w.alloc<double>(16);
  DispatchOutcome out;
  out.owner.assign(kItems, -1);
  const auto rr = m.run(kP, [&](rt::Pe& pe) {
    Team team(w, pe);
    team.parallel_for_dynamic(0, kItems, 3, [&](std::size_t i) {
      for (std::size_t k = 0; k < 3; ++k) {
        pe.advance(5.0 + static_cast<double>((i * 31 + k * 7) % 5) * 10.0);
        // The first read after an advance walks (and publishes the clock);
        // the rest hit at an unchanged clock.
        for (std::size_t j = 0; j < 4; ++j) (void)team.read(arr, (i + j) % 16);
      }
      out.owner[i] = pe.rank();
    });
  });
  out.pe_ns = rr.pe_ns;
  return out;
}

class SasDispatchStress : public ::testing::TestWithParam<int> {};

TEST_P(SasDispatchStress, HitsAtUnchangedClockKeepDispatchExact) {
  rt::Machine ref_machine;
  ref_machine.set_workers(1);
  const DispatchOutcome ref = run_dispatch_with_hits(ref_machine);
  for (int owner : ref.owner) ASSERT_GE(owner, 0);
  rt::Machine m;
  m.set_workers(GetParam());
  for (int rep = 0; rep < 100; ++rep) {
    const DispatchOutcome got = run_dispatch_with_hits(m);
    ASSERT_EQ(m.workers(), GetParam());
    ASSERT_TRUE(got == ref) << "repetition " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, SasDispatchStress, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace o2k::sas
