// Tests for the Chord core (o2k::dht) and the DHT application bindings:
// ring/routing invariants, deterministic churn and repair planning, traffic
// determinism, and — across MP, SHMEM and CC-SAS — identical hop counts and
// a store that matches the serial reference even under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/dht_app.hpp"
#include "apps/dht_detail.hpp"
#include "apps/main/app_main.hpp"
#include "dht/chord.hpp"
#include "dht/traffic.hpp"

namespace o2k {
namespace {

rt::Machine& machine() {
  static rt::Machine m;
  return m;
}

std::vector<std::uint8_t> all_alive(int n) {
  return std::vector<std::uint8_t>(static_cast<std::size_t>(n), 1);
}

TEST(ChordRing, SuccessorIsFirstAliveAtOrAfterPoint) {
  auto alive = all_alive(16);
  alive[3] = 0;
  alive[11] = 0;
  const auto ring = dht::Ring::build(alive);
  EXPECT_EQ(ring.n_alive(), 14);
  EXPECT_EQ(ring.n_total(), 16);
  // Brute-force reference: minimal clockwise distance over alive nodes.
  for (std::uint64_t probe : {0ULL, 1ULL << 20, 1ULL << 40, ~0ULL - 5, 12345678901ULL}) {
    dht::NodeId best = 0;
    std::uint64_t best_d = ~0ULL;
    for (int n = 0; n < 16; ++n) {
      if (!alive[static_cast<std::size_t>(n)]) continue;
      const std::uint64_t d = dht::node_point(static_cast<dht::NodeId>(n)) - probe;
      if (d <= best_d) {
        // Ties cannot occur (distinct hash points), so strict compare is fine.
        if (d < best_d) {
          best_d = d;
          best = static_cast<dht::NodeId>(n);
        }
      }
    }
    EXPECT_EQ(ring.successor(probe), best) << "probe=" << probe;
  }
}

TEST(ChordRing, ReplicasAreDistinctRingSuccessorsOfOwner) {
  const auto ring = dht::Ring::build(all_alive(24));
  std::vector<dht::NodeId> reps;
  for (std::uint32_t key = 0; key < 64; ++key) {
    ring.replicas(key, 3, reps);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], ring.owner(key));
    std::set<dht::NodeId> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), reps.size()) << "replica set must be distinct";
  }
  // With fewer alive nodes than k, the set degrades gracefully.
  const auto tiny = dht::Ring::build(all_alive(2));
  tiny.replicas(7, 3, reps);
  EXPECT_EQ(reps.size(), 2u);
}

TEST(ChordRouting, GreedyRoutingReachesOwnerInLogHops) {
  const int nodes = 48;
  const auto ring = dht::Ring::build(all_alive(nodes));
  std::vector<dht::Fingers> fg;
  for (int n = 0; n < nodes; ++n)
    fg.push_back(dht::Fingers::build(ring, static_cast<dht::NodeId>(n)));
  for (std::uint32_t key = 0; key < 256; ++key) {
    dht::NodeId cur = ring.pick_alive(dht::mix64(key));
    int hops = 0;
    while (true) {
      const auto [next, scanned] = dht::next_hop(ring, fg[cur], key);
      EXPECT_GE(scanned, 1);
      if (next == cur) break;  // cur owns the key
      cur = next;
      ASSERT_LE(++hops, 16) << "routing must terminate in O(log N) hops";
    }
    EXPECT_EQ(cur, ring.owner(key));
  }
}

TEST(ChordChurn, EventsAreLegalAndDeterministic) {
  const int nodes = 20, min_alive = 15;
  auto alive = all_alive(nodes);
  int n_alive = nodes;
  for (int e = 0; e < 200; ++e) {
    const auto ev = dht::churn_event(alive, min_alive, 42, e);
    ASSERT_TRUE(ev.has_value());
    const auto again = dht::churn_event(alive, min_alive, 42, e);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(ev->fail, again->fail);
    EXPECT_EQ(ev->node, again->node);
    if (ev->fail) {
      EXPECT_TRUE(alive[ev->node]);
      alive[ev->node] = 0;
      --n_alive;
    } else {
      EXPECT_FALSE(alive[ev->node]);
      alive[ev->node] = 1;
      ++n_alive;
    }
    EXPECT_GE(n_alive, min_alive) << "churn must respect the alive floor";
  }
}

TEST(ChordChurn, NoLegalMoveYieldsNullopt) {
  // All alive but failing would dip below the floor, and nothing is dead to
  // rejoin: the schedule must say "no event" rather than break an invariant.
  const auto ev = dht::churn_event(all_alive(4), 4, 7, 0);
  EXPECT_FALSE(ev.has_value());
}

TEST(ChordRepair, PlanRestoresFullReplication) {
  const int nodes = 16, k = 3;
  const std::uint32_t keys = 128;
  auto alive = all_alive(nodes);
  const auto before = dht::Ring::build(alive);

  // Host-side store mirror: which nodes hold which key.
  std::vector<std::set<dht::NodeId>> holders(keys);
  std::vector<dht::NodeId> reps;
  for (std::uint32_t key = 0; key < keys; ++key) {
    before.replicas(key, k, reps);
    holders[key].insert(reps.begin(), reps.end());
  }

  // Fail one node, apply the plan, and check every key is fully replicated
  // on the new ring with every copy sourced from a surviving holder.
  const dht::NodeId dead = 5;
  alive[dead] = 0;
  const auto after = dht::Ring::build(alive);
  for (auto& h : holders) h.erase(dead);
  const auto plan = dht::plan_repair(before, after, keys, k);
  for (const auto& x : plan) {
    EXPECT_TRUE(after.is_alive(x.src));
    EXPECT_TRUE(after.is_alive(x.dst));
    EXPECT_TRUE(holders[x.key].count(x.src)) << "repair source must already hold the key";
    holders[x.key].insert(x.dst);
  }
  for (std::uint32_t key = 0; key < keys; ++key) {
    after.replicas(key, k, reps);
    for (const dht::NodeId d : reps)
      EXPECT_TRUE(holders[key].count(d)) << "key " << key << " missing on node " << d;
  }
}

// ---- replica arcs -----------------------------------------------------------

TEST(ChordArc, HalfOpenAndWrapping) {
  const dht::Arc plain{10, 20, false};
  EXPECT_FALSE(plain.contains(10));
  EXPECT_TRUE(plain.contains(11));
  EXPECT_TRUE(plain.contains(20));
  EXPECT_FALSE(plain.contains(21));
  const dht::Arc wrap{~0ULL - 5, 3, false};
  EXPECT_FALSE(wrap.contains(~0ULL - 5));
  EXPECT_TRUE(wrap.contains(~0ULL));
  EXPECT_TRUE(wrap.contains(0));
  EXPECT_TRUE(wrap.contains(3));
  EXPECT_FALSE(wrap.contains(4));
  EXPECT_FALSE((dht::Arc{7, 7, false}.contains(7)));
  EXPECT_TRUE((dht::Arc{7, 7, true}.contains(123)));
}

/// Every alive node's arc holds a key's point exactly when the node is in
/// the key's replica set.
void expect_arcs_match_replicas(const dht::Ring& ring, int k, std::uint32_t keys) {
  std::vector<std::pair<dht::NodeId, dht::Arc>> arcs;
  for (int n = 0; n < ring.n_total(); ++n) {
    const auto id = static_cast<dht::NodeId>(n);
    if (ring.is_alive(id)) arcs.emplace_back(id, ring.replica_arc(id, k));
  }
  std::vector<dht::NodeId> reps;
  for (std::uint32_t key = 0; key < keys; ++key) {
    ring.replicas(key, k, reps);
    for (const auto& [n, arc] : arcs) {
      const bool member = std::find(reps.begin(), reps.end(), n) != reps.end();
      ASSERT_EQ(arc.contains(dht::key_point(key)), member)
          << "node " << n << " key " << key << " k " << k << " alive " << ring.n_alive();
    }
  }
}

/// Membership with roughly one node in `one_in` dead, chosen by hash.
std::vector<std::uint8_t> random_alive(int n, int one_in, std::uint64_t seed) {
  auto alive = all_alive(n);
  for (int i = 0; i < n; ++i) {
    if (dht::mix64(seed + static_cast<std::uint64_t>(i)) % static_cast<std::uint64_t>(one_in) == 0)
      alive[static_cast<std::size_t>(i)] = 0;
  }
  alive[0] = 1;
  return alive;
}

TEST(ChordArc, ContainsKeyExactlyWhenNodeIsAReplica) {
  for (const int k : {1, 2, 3, 5}) {
    SCOPED_TRACE(k);
    // Up to k alive nodes every node holds every key; k + 1 is the first
    // ring whose arcs are proper.
    for (int a = 1; a <= k + 1; ++a) {
      std::vector<std::uint8_t> alive(static_cast<std::size_t>(k + 3), 0);
      for (int i = 0; i < a; ++i) alive[static_cast<std::size_t>(7 * i % (k + 3))] = 1;
      const auto ring = dht::Ring::build(alive);
      ASSERT_EQ(ring.n_alive(), a);
      for (int n = 0; n < ring.n_total(); ++n) {
        const auto id = static_cast<dht::NodeId>(n);
        if (ring.is_alive(id)) {
          EXPECT_EQ(ring.replica_arc(id, k).all, a <= k);
        }
      }
      expect_arcs_match_replicas(ring, k, 512);
    }
    expect_arcs_match_replicas(dht::Ring::build(random_alive(16, 4, 11)), k, 2048);
    expect_arcs_match_replicas(dht::Ring::build(random_alive(1024, 5, 12)), k, 4096);
  }
}

TEST(ChordArc, RejectsDeadNode) {
  auto alive = all_alive(8);
  alive[3] = 0;
  const auto ring = dht::Ring::build(alive);
  EXPECT_THROW((void)ring.replica_arc(3, 2), std::invalid_argument);
  EXPECT_THROW((void)ring.replica_arc(8, 2), std::invalid_argument);
}

// ---- repair planning against the all-keys reference --------------------------

/// The repair planner as it was before replica arcs: every key's old and
/// new replica sets are compared.  Kept here as the reference the arc
/// filter must reproduce element for element.
std::vector<dht::RepairXfer> plan_repair_all_keys(const dht::Ring& before,
                                                  const dht::Ring& after,
                                                  std::uint32_t keys, int k) {
  std::vector<dht::RepairXfer> out;
  std::vector<dht::NodeId> old_set, new_set;
  for (std::uint32_t key = 0; key < keys; ++key) {
    before.replicas(key, k, old_set);
    after.replicas(key, k, new_set);
    dht::NodeId src = 0;
    bool have_src = false;
    for (const dht::NodeId n : old_set) {
      if (after.is_alive(n)) {
        src = n;
        have_src = true;
        break;
      }
    }
    if (!have_src) ADD_FAILURE() << "key " << key << " lost all replicas";
    for (const dht::NodeId d : new_set) {
      if (d == src) continue;
      const bool held = std::find(old_set.begin(), old_set.end(), d) != old_set.end();
      if (held && after.is_alive(d)) continue;
      out.push_back(dht::RepairXfer{key, src, d});
    }
  }
  return out;
}

void expect_same_plan(const dht::Ring& before, const dht::Ring& after, std::uint32_t keys,
                      int k) {
  const auto want = plan_repair_all_keys(before, after, keys, k);
  const auto got = dht::plan_repair(before, after, keys, k);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "transfer " << i;
    EXPECT_EQ(got[i].src, want[i].src) << "transfer " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << "transfer " << i;
  }
}

TEST(ChordRepair, ArcPlanEqualsAllKeysPlanOverChurnSequence) {
  for (const int k : {2, 3}) {
    SCOPED_TRACE(k);
    const int nodes = 96;
    const std::uint32_t keys = 2048;
    auto alive = all_alive(nodes);
    auto ring = dht::Ring::build(alive);
    std::size_t moved = 0;
    for (int e = 0; e < 200; ++e) {
      const auto ev = dht::churn_event(alive, nodes * 3 / 4, 99, e);
      ASSERT_TRUE(ev.has_value());
      alive[ev->node] = ev->fail ? 0 : 1;
      const auto next = dht::Ring::build(alive);
      expect_same_plan(ring, next, keys, k);
      moved += dht::plan_repair(ring, next, keys, k).size();
      ring = next;
    }
    EXPECT_GT(moved, 0u) << "the sequence must exercise real repairs";
  }
}

TEST(ChordRepair, ArcPlanEqualsAllKeysPlanForTwoNodeChange) {
  const int nodes = 32, k = 3;
  const std::uint32_t keys = 4096;
  auto alive = all_alive(nodes);
  alive[7] = 0;
  const auto before = dht::Ring::build(alive);
  auto swapped = alive;  // one node fails while another joins
  swapped[7] = 1;
  swapped[20] = 0;
  expect_same_plan(before, dht::Ring::build(swapped), keys, k);
  auto two_down = alive;  // two failures between repairs (k - 1 = 2 allowed)
  two_down[3] = 0;
  two_down[25] = 0;
  expect_same_plan(before, dht::Ring::build(two_down), keys, k);
  EXPECT_TRUE(dht::plan_repair(before, before, keys, k).empty());  // no change
}

TEST(ChordRepair, ArcPlanEqualsAllKeysPlanWithAtMostKAlive) {
  const int k = 3;
  const std::uint32_t keys = 512;
  std::vector<std::uint8_t> alive{1, 1, 1, 0, 0, 1};  // 4 alive > k
  const auto four = dht::Ring::build(alive);
  alive[5] = 0;  // 3 alive = k: every node holds every key
  const auto three = dht::Ring::build(alive);
  alive[1] = 0;  // 2 alive < k
  const auto two = dht::Ring::build(alive);
  expect_same_plan(four, three, keys, k);
  expect_same_plan(three, two, keys, k);
  expect_same_plan(two, three, keys, k);
  expect_same_plan(three, four, keys, k);
}

TEST(ChordRepair, RejectsRingsOfDifferentSize) {
  const auto a = dht::Ring::build(all_alive(8));
  const auto b = dht::Ring::build(all_alive(9));
  EXPECT_THROW(dht::plan_repair(a, b, 16, 2), std::invalid_argument);
}

TEST(DhtLocalReplicas, SameSequenceAsFilteringEveryKey) {
  const int nprocs = 5, k = 3;
  const std::uint32_t keys = 3000;
  for (const auto& alive : {all_alive(20), random_alive(20, 3, 5), random_alive(40, 2, 6)}) {
    const auto ring = dht::Ring::build(alive);
    std::vector<dht::NodeId> reps;
    for (int me = 0; me < nprocs; ++me) {
      std::vector<std::pair<std::uint32_t, dht::NodeId>> want, got;
      for (std::uint32_t key = 0; key < keys; ++key) {
        ring.replicas(key, k, reps);
        for (const dht::NodeId d : reps)
          if (dht::pe_of(d, nprocs) == me) want.emplace_back(key, d);
      }
      apps::detail::for_each_local_replica(
          ring, k, keys, me, nprocs,
          [&](std::uint32_t key, dht::NodeId d) { got.emplace_back(key, d); });
      EXPECT_EQ(got, want) << "pe " << me << " alive " << ring.n_alive();
    }
  }
}

TEST(DhtTraffic, StreamIsDeterministicAndZipfSkewed) {
  const dht::Traffic a(1024, 0.9, 77, 10);
  const dht::Traffic b(1024, 0.9, 77, 10);
  std::map<std::uint32_t, int> freq;
  int puts = 0;
  for (std::uint64_t j = 0; j < 20000; ++j) {
    EXPECT_EQ(a.key_of(j), b.key_of(j));
    EXPECT_EQ(a.is_put(j), b.is_put(j));
    EXPECT_EQ(a.entry_raw(j), b.entry_raw(j));
    ++freq[a.key_of(j)];
    puts += a.is_put(j) ? 1 : 0;
  }
  // Zipf(0.9): rank 0 dominates any deep rank by a wide margin.
  EXPECT_GT(freq[a.permute(0)], 8 * std::max(1, freq[a.permute(900)]));
  // Put fraction lands near the configured 10%.
  EXPECT_NEAR(static_cast<double>(puts) / 20000.0, 0.10, 0.02);
}

TEST(DhtTraffic, ExpectedValuesMatchManualReplay) {
  const dht::Traffic t(64, 0.8, 5, 50);
  const std::uint64_t n = 5000;
  std::vector<std::uint64_t> ref(64);
  for (std::uint32_t key = 0; key < 64; ++key) ref[key] = t.initial_value(key);
  for (std::uint64_t j = 0; j < n; ++j)
    if (t.is_put(j)) ref[t.key_of(j)] += t.put_delta(j);
  EXPECT_EQ(t.expected_values(n), ref);
}

// ---- the three bindings ----------------------------------------------------

apps::DhtConfig small_cfg() {
  apps::DhtConfig cfg;
  cfg.requests = 20000;
  cfg.keys = 1024;
  cfg.window = 512;
  cfg.churn_every = 4000;  // several fail/rejoin events within the run
  return cfg;
}

struct Case {
  apps::Model model;
  int procs;
};

class DhtModels : public ::testing::TestWithParam<Case> {};

TEST_P(DhtModels, LookupAndStoreCorrectUnderChurn) {
  const auto [model, procs] = GetParam();
  const auto rep = apps::run_dht(model, machine(), procs, small_cfg());
  EXPECT_DOUBLE_EQ(rep.check("served"), 20000.0);
  EXPECT_DOUBLE_EQ(rep.check("store_ok"), 1.0);     // values match serial replay
  EXPECT_DOUBLE_EQ(rep.check("replicas_ok"), 1.0);  // replication restored post-churn
  EXPECT_GT(rep.run.counter("dht.hops"), rep.run.counter("dht.requests"));
  EXPECT_GT(rep.run.counter("dht.hot_hits"), 0u);
  if (procs > 1) {
    // At P=1 the overlay has only nodes_per_pe nodes, below the churn floor
    // (dht_min_alive), so no membership event is legal and repair stays 0.
    EXPECT_GT(rep.check("churn_events"), 0.0);
    EXPECT_GT(rep.run.counter("dht.repair_keys"), 0u);
  } else {
    EXPECT_DOUBLE_EQ(rep.check("churn_events"), 0.0);
  }
}

TEST_P(DhtModels, SimulatedTimeReproducible) {
  const auto [model, procs] = GetParam();
  const auto r1 = apps::run_dht(model, machine(), procs, small_cfg());
  const auto r2 = apps::run_dht(model, machine(), procs, small_cfg());
  EXPECT_DOUBLE_EQ(r1.run.makespan_ns, r2.run.makespan_ns);
  EXPECT_EQ(r1.checks, r2.checks);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndProcs, DhtModels,
    ::testing::Values(Case{apps::Model::kMp, 1}, Case{apps::Model::kMp, 8},
                      Case{apps::Model::kShmem, 1}, Case{apps::Model::kShmem, 8},
                      Case{apps::Model::kSas, 1}, Case{apps::Model::kSas, 8}),
    [](const auto& info) {
      std::string name = apps::model_name(info.param.model);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_P" + std::to_string(info.param.procs);
    });

TEST(DhtCrossModel, HopCountsIdenticalAcrossModelsAtP8) {
  // Routing decisions are pure functions of (membership, key) shared through
  // dht::chord, so per-request hop counts — and with them the hot-key hits
  // and repair volume — must agree bit-for-bit across the three transports.
  const auto cfg = small_cfg();
  const auto mp = apps::run_dht(apps::Model::kMp, machine(), 8, cfg);
  const auto sh = apps::run_dht(apps::Model::kShmem, machine(), 8, cfg);
  const auto sa = apps::run_dht(apps::Model::kSas, machine(), 8, cfg);
  EXPECT_DOUBLE_EQ(mp.check("hops"), sh.check("hops"));
  EXPECT_DOUBLE_EQ(mp.check("hops"), sa.check("hops"));
  EXPECT_DOUBLE_EQ(mp.check("hot_hits"), sh.check("hot_hits"));
  EXPECT_DOUBLE_EQ(mp.check("hot_hits"), sa.check("hot_hits"));
  EXPECT_DOUBLE_EQ(mp.check("served"), sh.check("served"));
  EXPECT_DOUBLE_EQ(mp.check("served"), sa.check("served"));
  EXPECT_DOUBLE_EQ(mp.check("alive"), sa.check("alive"));
  EXPECT_EQ(mp.run.counter("dht.repair_keys"), sh.run.counter("dht.repair_keys"));
  EXPECT_EQ(mp.run.counter("dht.repair_keys"), sa.run.counter("dht.repair_keys"));
}

TEST(DhtConfigChecks, RejectsDegenerateInputs) {
  auto cfg = small_cfg();
  cfg.replicas = 0;
  EXPECT_THROW(apps::run_dht(apps::Model::kMp, machine(), 2, cfg), std::invalid_argument);
  cfg = small_cfg();
  cfg.keys = 0;
  EXPECT_THROW(apps::run_dht(apps::Model::kShmem, machine(), 2, cfg), std::invalid_argument);
  cfg = small_cfg();
  cfg.window = 0;
  EXPECT_THROW(apps::run_dht(apps::Model::kSas, machine(), 2, cfg), std::invalid_argument);
}

// ---- app binary main ---------------------------------------------------------

int run_dht_main(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return apps::appmain::dht_main(static_cast<int>(argv.size()), argv.data(), apps::Model::kMp);
}

TEST(DhtMain, RunsPastSixtyFourPes) {
  // The Origin2000 parameters host 64 PEs; dht_main scales the machine
  // to --p, so P=256 runs instead of failing a max_pes check.
  testing::internal::CaptureStdout();
  const int rc = run_dht_main({"dht_mp", "--p=256", "--workers=4", "--keys=1024",
                               "--requests=3000", "--window=256", "--churn-every=1000"});
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("check store_ok = 1"), std::string::npos) << out;
  EXPECT_NE(out.find("check replicas_ok = 1"), std::string::npos) << out;
}

TEST(DhtMain, RejectsNonPositiveProcessorCount) {
  for (const char* p : {"--p=0", "--p=-3"}) {
    testing::internal::CaptureStderr();
    const int rc = run_dht_main({"dht_mp", p});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2) << p;
    EXPECT_NE(err.find("--p expects"), std::string::npos) << err;
  }
}

// Config errors exit 2 with one line on stderr, not std::terminate (134);
// a negative count is a usage error before it can wrap to a huge value.
TEST(DhtMain, ConfigErrorsExitTwoWithOneLine) {
  for (const char* flag : {"--window=0", "--replicas=0", "--keys=0", "--churn-every=0"}) {
    testing::internal::CaptureStderr();
    const int rc = run_dht_main({"dht_mp", "--p=4", flag});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2) << flag;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    EXPECT_NE(err.find("invalid configuration"), std::string::npos) << err;
  }
  testing::internal::CaptureStderr();
  const int rc = run_dht_main({"dht_mp", "--p=4", "--keys=-1"});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("--keys expects a count >= 0"), std::string::npos) << err;
}

// Adaptive migration is gone: --migrate is an ordinary unknown flag, so the
// app binary rejects it as a usage error (exit 2 next to the help text)
// rather than accepting it or ending in std::terminate.
TEST(DhtMain, MigrateIsAnUnknownFlag) {
  testing::internal::CaptureStderr();
  const int rc = run_dht_main({"dht_mp", "--p=4", "--migrate=1"});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown flag --migrate"), std::string::npos) << err;
}

}  // namespace
}  // namespace o2k
