// Tests for the MP (message-passing) runtime: matching semantics, protocol
// cost behaviour, and all collectives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>

#include "metrics/sink.hpp"
#include "mp/comm.hpp"
#include "sanitize/sanitize.hpp"

namespace o2k::mp {
namespace {

rt::Machine& machine() {
  static rt::Machine m;
  return m;
}

TEST(MpP2P, SendRecvDeliversPayload) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      std::vector<int> data{1, 2, 3, 4};
      comm.send(std::span<const int>(data), 1, 7);
    } else {
      const auto got = comm.recv_vec<int>(0, 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
    }
  });
}

TEST(MpP2P, TagMatchingSelectsCorrectMessage) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      comm.send_value<int>(111, 1, /*tag=*/1);
      comm.send_value<int>(222, 1, /*tag=*/2);
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 111);
    }
  });
}

TEST(MpP2P, FifoPerSourceAndTag) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send_value<int>(i, 1, 5);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
    }
  });
}

TEST(MpP2P, AnyTagReceivesFirstAvailable) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      comm.send_value<int>(9, 1, 42);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, kAnyTag), 9);
    }
  });
}

TEST(MpP2P, SelfSendWorks) {
  World w(machine().params(), 1);
  machine().run(1, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    comm.send_value<double>(3.5, 0, 1);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 1), 3.5);
  });
}

TEST(MpP2P, ReceiverClockRespectsArrival) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      pe.advance(100000.0);  // sender is late
      comm.send_value<int>(1, 1, 0);
    } else {
      (void)comm.recv_value<int>(0, 0);
      // Receiver cannot complete before the sender even started.
      EXPECT_GT(pe.now(), 100000.0);
    }
  });
}

TEST(MpP2P, RendezvousBlocksSenderUntilReceiverPosts) {
  World w(machine().params(), 2);
  const std::size_t big = machine().params().mp_eager_bytes + 1000;
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      std::vector<std::byte> data(big);
      comm.send_bytes(data, 1, 0);
      // Receiver posted at t=500000; sender must release after that.
      EXPECT_GT(pe.now(), 500000.0);
    } else {
      pe.advance(500000.0);
      const auto got = comm.recv_bytes(0, 0);
      EXPECT_EQ(got.size(), big);
    }
  });
}

TEST(MpP2P, EagerSendDoesNotBlockSender) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      comm.send_value<int>(1, 1, 0);
      EXPECT_LT(pe.now(), 100000.0);  // far less than the receiver's delay
    } else {
      pe.advance(500000.0);
      (void)comm.recv_value<int>(0, 0);
    }
  });
}

TEST(MpP2P, LargerMessagesCostMore) {
  World w(machine().params(), 2);
  double t_small = 0, t_big = 0;
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      std::vector<std::byte> s(64), b(8192);
      comm.send_bytes(s, 1, 0);
      comm.send_bytes(b, 1, 1);
    } else {
      const double t0 = pe.now();
      (void)comm.recv_bytes(0, 0);
      t_small = pe.now() - t0;
      const double t1 = pe.now();
      (void)comm.recv_bytes(0, 1);
      t_big = pe.now() - t1;
    }
  });
  EXPECT_GT(t_big, t_small);
}

TEST(MpP2P, InvalidRanksRejected) {
  World w(machine().params(), 2);
  EXPECT_THROW(machine().run(2,
                             [&](rt::Pe& pe) {
                               Comm comm(w, pe);
                               comm.send_value<int>(1, 5, 0);
                             }),
               std::invalid_argument);
}

TEST(MpNonblocking, IrecvWaitDelivers) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      std::vector<int> data{5, 6};
      auto req = comm.isend(std::span<const int>(data), 1, 3);
      comm.wait(req);
    } else {
      std::vector<int> out(2);
      auto req = comm.irecv(std::span<int>(out), 0, 3);
      comm.wait(req);
      EXPECT_EQ(out, (std::vector<int>{5, 6}));
    }
  });
}

TEST(MpNonblocking, WaitAllCompletesEverything) {
  World w(machine().params(), 3);
  machine().run(3, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() != 0) {
      comm.isend(std::span<const int>(std::vector<int>{pe.rank()}), 0, 9);
    } else {
      std::vector<int> a(1), b(1);
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(std::span<int>(a), 1, 9));
      reqs.push_back(comm.irecv(std::span<int>(b), 2, 9));
      comm.wait_all(reqs);
      EXPECT_EQ(a[0], 1);
      EXPECT_EQ(b[0], 2);
    }
  });
}

class MpCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MpCollectives, Barrier) {
  const int p = GetParam();
  World w(machine().params(), p);
  auto rr = machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    pe.advance(1000.0 * pe.rank());
    comm.barrier();
  });
  EXPECT_GE(rr.makespan_ns, 1000.0 * (p - 1));
}

TEST_P(MpCollectives, BcastFromEveryRoot) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(3, pe.rank() == root ? root + 100 : -1);
      comm.bcast(std::span<int>(data), root);
      EXPECT_EQ(data, std::vector<int>(3, root + 100));
    }
  });
}

TEST_P(MpCollectives, AllreduceSumAndMinMax) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    const int sum = comm.allreduce_sum(pe.rank() + 1);
    EXPECT_EQ(sum, p * (p + 1) / 2);
    EXPECT_EQ(comm.allreduce_max(pe.rank()), p - 1);
    EXPECT_EQ(comm.allreduce_min(pe.rank()), 0);
    const double dsum = comm.allreduce_sum(0.5);
    EXPECT_DOUBLE_EQ(dsum, 0.5 * p);
  });
}

TEST_P(MpCollectives, GatherAndAllgather) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    const auto g = comm.gather(pe.rank() * 2, 0);
    if (pe.rank() == 0) {
      for (int r = 0; r < p; ++r) EXPECT_EQ(g[static_cast<std::size_t>(r)], r * 2);
    }
    const auto ag = comm.allgather(pe.rank() + 10);
    ASSERT_EQ(ag.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(ag[static_cast<std::size_t>(r)], r + 10);
  });
}

TEST_P(MpCollectives, AllgathervConcatenatesInRankOrder) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(pe.rank() + 1), pe.rank());
    const auto all = comm.allgatherv<int>(mine);
    std::vector<int> expect;
    for (int r = 0; r < p; ++r) {
      expect.insert(expect.end(), static_cast<std::size_t>(r + 1), r);
    }
    EXPECT_EQ(all, expect);
  });
}

TEST_P(MpCollectives, AlltoallvExchangesBlocks) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)] = {pe.rank() * 100 + d};
    }
    const auto recv = comm.alltoallv<int>(send);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)][0], s * 100 + pe.rank());
    }
  });
}

TEST_P(MpCollectives, ExscanSum) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    const int ex = comm.exscan_sum(pe.rank() + 1);
    EXPECT_EQ(ex, pe.rank() * (pe.rank() + 1) / 2);
  });
}

TEST_P(MpCollectives, SimulatedTimeDeterministic) {
  const int p = GetParam();
  World w1(machine().params(), p), w2(machine().params(), p);
  auto body = [](World& w) {
    return [&w](rt::Pe& pe) {
      Comm comm(w, pe);
      auto v = comm.allgatherv<int>(std::vector<int>(static_cast<std::size_t>(pe.rank() + 1), 1));
      comm.barrier();
      (void)comm.allreduce_sum(static_cast<int>(v.size()));
    };
  };
  const auto r1 = machine().run(p, body(w1));
  const auto r2 = machine().run(p, body(w2));
  EXPECT_EQ(r1.pe_ns, r2.pe_ns);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, MpCollectives, ::testing::Values(1, 2, 3, 4, 7, 8, 16, 32));

// Lost-wakeup stress: every rank sends one message per (destination, tag)
// pair and receives its incoming set in a rank-seeded shuffled order, with
// seeded virtual work injected between operations.  The shuffles make
// receivers routinely park for messages that have not been sent yet while
// senders race to enqueue-and-wake, so a wake landing between a receiver's
// predicate check and its park (the classic lost-wakeup window the slot
// epoch closes) is exercised thousands of times per run.  Payload checks
// catch misdelivery; identical per-PE clocks across two runs catch any
// schedule leaking into virtual time.
class MpWakeupStress : public ::testing::TestWithParam<int> {};

/// The shuffled send/recv stress body shared by the wakeup-stress suites.
std::function<void(rt::Pe&)> shuffled_stress_body(World& w, int p) {
  constexpr int kTags = 12;
  const auto payload = [](int src, int dst, int tag) {
    return (src * 1000 + dst) * 100 + tag;
  };
  return [&w, p, payload](rt::Pe& pe) {
    Comm comm(w, pe);
    const int me = pe.rank();
    std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(me));
    std::uniform_real_distribution<double> work(10.0, 2000.0);

    std::vector<std::pair<int, int>> sends;  // (dst, tag)
    std::vector<std::pair<int, int>> recvs;  // (src, tag)
    for (int other = 0; other < p; ++other) {
      if (other == me) continue;
      for (int tag = 0; tag < kTags; ++tag) {
        sends.emplace_back(other, tag);
        recvs.emplace_back(other, tag);
      }
    }
    std::shuffle(sends.begin(), sends.end(), rng);
    std::shuffle(recvs.begin(), recvs.end(), rng);

    for (const auto& [dst, tag] : sends) {
      pe.advance(work(rng));
      comm.send_value<int>(payload(me, dst, tag), dst, tag);
    }
    for (const auto& [src, tag] : recvs) {
      pe.advance(work(rng));
      EXPECT_EQ(comm.recv_value<int>(src, tag), payload(src, me, tag));
    }
    comm.barrier();
  };
}

// All sends happen before any receive (the deadlock-free ordering: eager
// sends never block, so no cyclic wait can form), but shuffled and
// separated by random virtual work.  Ranks drift apart, so fast ranks
// reach receives whose matching sends a slow rank has not issued yet and
// park — which is the window under test.
TEST_P(MpWakeupStress, ShuffledManyTagManyRank) {
  const int p = GetParam();
  rt::Machine m;
  World w1(m.params(), p), w2(m.params(), p);
  const auto r1 = m.run(p, shuffled_stress_body(w1, p));
  const auto r2 = m.run(p, shuffled_stress_body(w2, p));
  // Virtual time must be a pure function of the program, not of which host
  // thread won which wakeup race.
  EXPECT_EQ(r1.pe_ns, r2.pe_ns);
}

// Worker-count equivalence under wakeup races: fibers on one host thread
// and on several host threads (W = 2, 4, clamped to the node count) must
// produce identical virtual clocks for the same stress program, and
// repeated multi-threaded runs must reproduce each other.
TEST_P(MpWakeupStress, FibersMatchThreadsAndRepeatedRuns) {
  const int p = GetParam();
  rt::Machine m;
  auto run_at = [&](int workers) {
    World w(m.params(), p);
    m.set_workers(std::min(workers, p));
    return m.run(p, shuffled_stress_body(w, p)).pe_ns;
  };
  const auto one = run_at(1);
  EXPECT_EQ(one, run_at(2));
  EXPECT_EQ(one, run_at(4));
  EXPECT_EQ(one, run_at(4));
}

// Wake-during-reschedule: zero-work ping-pong makes every recv park and
// every send wake a fiber that is right now being switched away from, so
// the engine's missed-wake window (between a fiber's park decision and the
// worker publishing its parked status) is hit continuously.  Forcing
// several workers makes host threads race those wakes across domains.
TEST_P(MpWakeupStress, FibersWakeDuringReschedule) {
  const int p = GetParam();
  if (p % 2 != 0) GTEST_SKIP() << "ping-pong needs paired ranks";
  constexpr int kRounds = 200;
  auto body = [p](World& w) {
    return [&w, p](rt::Pe& pe) {
      Comm comm(w, pe);
      const int me = pe.rank();
      const int buddy = me ^ 1;
      for (int i = 0; i < kRounds; ++i) {
        if ((me & 1) == 0) {
          comm.send_value<int>(i, buddy, /*tag=*/7);
          ASSERT_EQ(comm.recv_value<int>(buddy, 7), i + 1);
        } else {
          ASSERT_EQ(comm.recv_value<int>(buddy, 7), i);
          comm.send_value<int>(i + 1, buddy, /*tag=*/7);
        }
      }
      comm.barrier();
    };
  };
  rt::Machine m;
  m.set_workers(std::min(4, p));
  World w1(m.params(), p), w2(m.params(), p);
  const auto r1 = m.run(p, body(w1));
  const auto r2 = m.run(p, body(w2));
  EXPECT_EQ(r1.pe_ns, r2.pe_ns);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, MpWakeupStress, ::testing::Values(2, 4, 8, 16, 32));

// Abort-unwind across fibers: one PE throws while the other 63 are parked
// in receives that can never complete.  The abort must wake every parked
// fiber, unwind each fiber stack (AbortError), propagate the original
// exception out of run(), and leave the pooled engine reusable.
TEST(MpFiberAbort, AbortUnwindsAcrossParkedFibers) {
  constexpr int kP = 64;
  rt::Machine m;
  World w(m.params(), kP);
  EXPECT_THROW(m.run(kP,
                     [&w](rt::Pe& pe) {
                       Comm comm(w, pe);
                       if (pe.rank() == 17) {
                         pe.advance(50.0);
                         throw std::runtime_error("boom on fiber 17");
                       }
                       // Tag 99 is never sent: parks until the abort wake.
                       (void)comm.recv_value<int>(17, /*tag=*/99);
                     }),
               std::runtime_error);
  // The engine (stacks, fibers, queues) must come back clean.
  World w2(m.params(), kP);
  const auto rr = m.run(kP, [&w2](rt::Pe& pe) {
    Comm comm(w2, pe);
    (void)comm.allreduce_sum(1);
    comm.barrier();
  });
  EXPECT_EQ(rr.nprocs, kP);
}

// ---------------------------------------------------------------------------
// alltoallv equivalence: the rendezvous-evaluated exchange against the
// pairwise exchange it replaced, rebuilt here from public send/recv_vec.
// Everything observable must be bit-identical: makespan, per-PE clocks,
// phase stats, counters, every sink event in per-PE order, the sanitizer's
// receive count and the delivered data.
// ---------------------------------------------------------------------------

/// The pre-rendezvous alltoallv: step s sends to me+s and receives from
/// me-s, the lower rank of each pair sending first.
template <typename T>
std::vector<std::vector<T>> pairwise_alltoallv(Comm& comm,
                                               const std::vector<std::vector<T>>& sendbufs,
                                               int tag) {
  const int p = comm.size();
  const int me = comm.rank();
  std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(me)] = sendbufs[static_cast<std::size_t>(me)];
  for (int step = 1; step < p; ++step) {
    const int dst = (me + step) % p;
    const int src = (me - step + p) % p;
    if (me < dst) {
      comm.send(std::span<const T>(sendbufs[static_cast<std::size_t>(dst)]), dst, tag);
      out[static_cast<std::size_t>(src)] = comm.recv_vec<T>(src, tag);
    } else {
      out[static_cast<std::size_t>(src)] = comm.recv_vec<T>(src, tag);
      comm.send(std::span<const T>(sendbufs[static_cast<std::size_t>(dst)]), dst, tag);
    }
  }
  comm.pe().collective_fence();
  return out;
}

/// Records every sink callback as text, per PE, in emission order (each PE
/// appends only to its own list, per the Sink threading contract).
class RecordingSink final : public metrics::Sink {
 public:
  explicit RecordingSink(int nprocs) : events_(static_cast<std::size_t>(nprocs)) {}
  void on_phase_begin(int pe, std::string_view name, double t) override {
    add(pe, "begin %s %a", std::string(name).c_str(), t);
  }
  void on_phase_end(int pe, std::string_view name, double t) override {
    add(pe, "end %s %a", std::string(name).c_str(), t);
  }
  void on_counter(int pe, std::string_view name, std::uint64_t d, double t) override {
    add(pe, "counter %s %llu %a", std::string(name).c_str(), static_cast<unsigned long long>(d),
        t);
  }
  void on_message(int pe, int src, int dst, std::uint64_t bytes, double t, bool m) override {
    add(pe, "msg %d>%d %llu %a %d", src, dst, static_cast<unsigned long long>(bytes), t,
        static_cast<int>(m));
  }
  void on_barrier(int pe, double b, double e) override { add(pe, "barrier %a %a", b, e); }
  [[nodiscard]] const std::vector<std::vector<std::string>>& events() const { return events_; }

 private:
  template <typename... A>
  void add(int pe, const char* fmt, A... a) {
    char buf[160];
    std::snprintf(buf, sizeof buf, fmt, a...);
    events_[static_cast<std::size_t>(pe)].emplace_back(buf);
  }
  std::vector<std::vector<std::string>> events_;
};

struct ExchangeRun {
  std::string canon;  ///< per-PE clocks, phase stats, counters (hex floats)
  std::vector<std::vector<std::string>> events;
  std::uint64_t mp_recvs = 0;
  std::vector<std::vector<std::vector<std::int32_t>>> received;  ///< [round * p + rank][src]
};

std::string canonical(const rt::RunResult& rr) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "makespan %a\n", rr.makespan_ns);
  out += buf;
  for (std::size_t r = 0; r < rr.pe_ns.size(); ++r) {
    std::snprintf(buf, sizeof buf, "clock %zu %a\n", r, rr.pe_ns[r]);
    out += buf;
  }
  for (const auto& [name, agg] : rr.phases) {
    std::snprintf(buf, sizeof buf, "phase %s max=%a min=%a sum=%a pes=%d\n", name.c_str(),
                  agg.max_ns, agg.min_ns, agg.sum_ns, agg.pes);
    out += buf;
  }
  for (const auto& [name, v] : rr.counters) out += "counter " + name + " " + std::to_string(v) + "\n";
  return out;
}

/// Block length in int32 elements from rank `src` to rank `dst`: a mix of
/// empty blocks, small eager blocks, one exactly at the eager limit, and
/// rendezvous blocks just above it.
std::size_t block_len(unsigned seed, int round, int src, int dst, std::size_t eager_elems) {
  std::mt19937 rng(seed * 7919u + static_cast<unsigned>(round * 1000003 + src * 1009 + dst));
  const unsigned k = rng() % 20;
  if (k < 6) return 0;
  if (k < 17) return 1 + rng() % 64;
  if (k == 17) return eager_elems;
  return eager_elems + 1 + rng() % 16;
}

ExchangeRun run_exchange(int p, int workers, bool reference, unsigned seed) {
  constexpr int kRounds = 2;
  rt::Machine m;
  m.set_workers(std::min(workers, p));
  RecordingSink sink(p);
  m.set_sink(&sink);
  sanitize::Sanitizer san(sanitize::Mode::kReport);
  ExchangeRun out;
  out.received.resize(static_cast<std::size_t>(kRounds * p));
  rt::RunResult rr;
  {
    sanitize::Scope scope(&san);
    World w(m.params(), p);
    const std::size_t eager_elems = m.params().mp_eager_bytes / sizeof(std::int32_t);
    rr = m.run(p, [&](rt::Pe& pe) {
      Comm comm(w, pe);
      const int me = pe.rank();
      std::mt19937 skew(seed + static_cast<unsigned>(me));
      for (int round = 0; round < kRounds; ++round) {
        // Skewed entry clocks: up to 60 us apart, more than a rendezvous.
        pe.advance(static_cast<double>(skew() % 60000));
        std::vector<std::vector<std::int32_t>> send(static_cast<std::size_t>(p));
        for (int d = 0; d < p; ++d) {
          auto& b = send[static_cast<std::size_t>(d)];
          b.resize(block_len(seed, round, me, d, eager_elems));
          for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = static_cast<std::int32_t>((me * 131 + d) * 7 + static_cast<int>(i));
        }
        auto phase = pe.phase("xchg");
        out.received[static_cast<std::size_t>(round * p + me)] =
            reference ? pairwise_alltoallv(comm, send, /*tag=*/42) : comm.alltoallv(send);
      }
    });
  }
  m.set_sink(nullptr);
  out.canon = canonical(rr);
  out.events = sink.events();
  out.mp_recvs = san.stats().mp_recvs;
  return out;
}

class MpAlltoallvEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MpAlltoallvEquivalence, BitIdenticalToPairwiseExchange) {
  const int p = GetParam();
  constexpr unsigned kSeed = 2024;
  const ExchangeRun want = run_exchange(p, 1, /*reference=*/true, kSeed);
  const std::size_t eager_elems = rt::Machine().params().mp_eager_bytes / sizeof(std::int32_t);
  for (int round = 0; round < 2; ++round) {
    for (int me = 0; me < p; ++me) {
      for (int src = 0; src < p; ++src) {
        const auto& got = want.received[static_cast<std::size_t>(round * p + me)]
                                       [static_cast<std::size_t>(src)];
        ASSERT_EQ(got.size(), block_len(kSeed, round, src, me, eager_elems));
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got[i], static_cast<std::int32_t>((src * 131 + me) * 7 + static_cast<int>(i)));
      }
    }
  }
  EXPECT_EQ(want.mp_recvs, 2u * static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p - 1));
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("W=" + std::to_string(workers));
    for (bool reference : {true, false}) {
      const ExchangeRun got = run_exchange(p, workers, reference, kSeed);
      EXPECT_EQ(want.canon, got.canon) << (reference ? "pairwise" : "alltoallv");
      EXPECT_EQ(want.events, got.events) << (reference ? "pairwise" : "alltoallv");
      EXPECT_EQ(want.mp_recvs, got.mp_recvs);
      EXPECT_EQ(want.received, got.received);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, MpAlltoallvEquivalence, ::testing::Values(1, 2, 3, 16, 64));

// A PE that throws before it reaches alltoallv leaves every other rank
// parked at the entry rendezvous; the abort must unwind all of them and
// run() must rethrow the original error, at every W.
TEST(MpAlltoallvAbort, ThrowBeforeEntryUnwindsEveryParkedRank) {
  constexpr int kP = 16;
  for (int workers : {1, 2, 4}) {
    rt::Machine m;
    m.set_workers(workers);
    World w(m.params(), kP);
    std::atomic<int> unwound{0};
    try {
      m.run(kP, [&](rt::Pe& pe) {
        Comm comm(w, pe);
        if (pe.rank() == 5) throw std::runtime_error("boom before alltoallv");
        try {
          (void)comm.alltoallv(std::vector<std::vector<int>>(kP, std::vector<int>{pe.rank()}));
        } catch (const rt::AbortError&) {
          unwound.fetch_add(1);
          throw;
        }
      });
      ADD_FAILURE() << "run() returned normally at workers=" << workers;
    } catch (const rt::AbortError&) {
      ADD_FAILURE() << "run() rethrew AbortError instead of the original error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom before alltoallv");
    }
    EXPECT_EQ(unwound.load(), kP - 1) << "workers=" << workers;
    // The machine stays usable: the next run completes the exchange.
    World w2(m.params(), kP);
    m.run(kP, [&](rt::Pe& pe) {
      Comm comm(w2, pe);
      const auto got = comm.alltoallv(std::vector<std::vector<int>>(kP, std::vector<int>{pe.rank()}));
      for (int s = 0; s < kP; ++s) EXPECT_EQ(got[static_cast<std::size_t>(s)].front(), s);
    });
  }
}

}  // namespace
}  // namespace o2k::mp
