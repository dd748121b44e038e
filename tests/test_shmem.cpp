// Tests for the SHMEM (one-sided) runtime.
#include <gtest/gtest.h>

#include <array>

#include "apps/shmem_coll.hpp"
#include "shmem/shmem.hpp"

namespace o2k::shmem {
namespace {

rt::Machine& machine() {
  static rt::Machine m;
  return m;
}

TEST(ShmemAlloc, SymmetricOffsetsAgreeAcrossPes) {
  World w(machine().params(), 4);
  std::array<std::size_t, 4> offsets{};
  machine().run(4, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto a = ctx.malloc<double>(10);
    auto b = ctx.malloc<int>(3);
    offsets[static_cast<std::size_t>(pe.rank())] = a.offset ^ (b.offset << 20);
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(offsets[static_cast<std::size_t>(r)], offsets[0]);
}

TEST(ShmemAlloc, HeapExhaustionDetected) {
  World w(machine().params(), 1, 8192);
  EXPECT_THROW(machine().run(1,
                             [&](rt::Pe& pe) {
                               Ctx ctx(w, pe);
                               (void)ctx.malloc<double>(10000);
                             }),
               std::invalid_argument);
}

TEST(ShmemRma, PutThenBarrierThenRemoteRead) {
  World w(machine().params(), 4);
  machine().run(4, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto cell = ctx.malloc<int>(4);
    // Everyone writes its rank into slot `rank` of its right neighbour.
    const int right = (pe.rank() + 1) % 4;
    ctx.put_value(cell.at(static_cast<std::size_t>(pe.rank())), pe.rank() * 11, right);
    ctx.barrier_all();
    const int left = (pe.rank() + 3) % 4;
    EXPECT_EQ(ctx.local(cell)[left], left * 11);
  });
}

TEST(ShmemRma, GetReadsRemoteData) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto arr = ctx.malloc<double>(8);
    for (std::size_t i = 0; i < 8; ++i) ctx.local(arr)[i] = pe.rank() * 100.0 + i;
    ctx.barrier_all();
    std::vector<double> got(8);
    ctx.get(std::span<double>(got), arr, 1 - pe.rank());
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(got[i], (1 - pe.rank()) * 100.0 + i);
    }
  });
}

TEST(ShmemRma, GetCostsRoundTrip) {
  World w(machine().params(), 4);
  machine().run(4, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto arr = ctx.malloc<int>(1);
    ctx.barrier_all();
    const double t0 = pe.now();
    (void)ctx.get_value(arr, (pe.rank() + 2) % 4);  // different node
    const double cost = pe.now() - t0;
    EXPECT_GT(cost, machine().params().shmem_o_ns);
  });
}

TEST(ShmemRma, PutNbiChargesBandwidthAtQuiet) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto arr = ctx.malloc<double>(4096);
    ctx.barrier_all();
    if (pe.rank() == 0) {
      std::vector<double> data(4096, 1.0);
      const double t0 = pe.now();
      ctx.put_nbi(arr, std::span<const double>(data), 1);
      const double post_cost = pe.now() - t0;
      ctx.quiet();
      const double total_cost = pe.now() - t0;
      // The initiation is cheap; the bandwidth bill arrives at quiet().
      EXPECT_LT(post_cost, total_cost / 4);
    }
    ctx.barrier_all();
  });
}

TEST(ShmemRma, EmptySpansAreChargedButCopyNothing) {
  // An empty block (a PE contributing nothing to an allgatherv) has a null
  // data(): put, put_nbi and get must charge the operation as usual and
  // never hand that pointer to memcpy (UBSan's nonnull check).
  World w(machine().params(), 4);
  const auto& P = machine().params();
  const auto rr = machine().run(4, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto arr = ctx.malloc<double>(4);
    ctx.barrier_all();
    const int target = (pe.rank() + 2) % 4;  // different node
    const double wire = P.wire_ns(pe.rank(), target);
    const double t0 = pe.now();
    ctx.put(arr, std::span<const double>{}, target);
    EXPECT_DOUBLE_EQ(pe.now() - t0, P.shmem_o_ns);
    ctx.put_nbi(arr, std::span<const double>{}, target);
    ctx.quiet();
    EXPECT_DOUBLE_EQ(pe.now() - t0, 3 * P.shmem_o_ns + wire);
    ctx.get(std::span<double>{}, arr, target);
    EXPECT_DOUBLE_EQ(pe.now() - t0, 4 * P.shmem_o_ns + 3 * wire);
  });
  EXPECT_EQ(rr.counters.at("shmem.puts"), 8u);
  EXPECT_EQ(rr.counters.at("shmem.gets"), 4u);
  EXPECT_EQ(rr.counters.at("shmem.bytes"), 0u);
}

TEST(ShmemRma, BoundsChecked) {
  World w(machine().params(), 2);
  EXPECT_THROW(machine().run(2,
                             [&](rt::Pe& pe) {
                               Ctx ctx(w, pe);
                               auto arr = ctx.malloc<int>(4);
                               std::vector<int> big(8);
                               ctx.put(arr, std::span<const int>(big), 1 - pe.rank());
                             }),
               std::invalid_argument);
}

TEST(ShmemAtomics, FetchAddSerialises) {
  World w(machine().params(), 8);
  machine().run(8, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto counter = ctx.malloc<std::int64_t>(1);
    ctx.barrier_all();
    for (int i = 0; i < 10; ++i) (void)ctx.fetch_add(counter, 1, 0);
    ctx.barrier_all();
    if (pe.rank() == 0) {
      EXPECT_EQ(*ctx.local(counter), 80);
    }
  });
}

TEST(ShmemAtomics, CswapSemantics) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto cell = ctx.malloc<std::int64_t>(1);
    ctx.barrier_all();
    if (pe.rank() == 0) {
      EXPECT_EQ(ctx.cswap(cell, 0, 42, 0), 0);   // succeeds
      EXPECT_EQ(ctx.cswap(cell, 0, 99, 0), 42);  // fails, returns current
      EXPECT_EQ(*ctx.local(cell), 42);
    }
    ctx.barrier_all();
  });
}

TEST(ShmemAtomics, LockMutualExclusion) {
  World w(machine().params(), 8);
  int counter = 0;  // host-side shared; protected by the SHMEM lock
  machine().run(8, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto lock = ctx.malloc<std::int64_t>(1);
    ctx.barrier_all();
    for (int i = 0; i < 5; ++i) {
      ctx.set_lock(lock);
      const int v = counter;
      counter = v + 1;
      ctx.clear_lock(lock);
    }
    ctx.barrier_all();
  });
  EXPECT_EQ(counter, 40);
}

class ShmemCollP : public ::testing::TestWithParam<int> {};

TEST_P(ShmemCollP, SumAndMaxToAll) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    EXPECT_DOUBLE_EQ(ctx.sum_to_all(1.5), 1.5 * p);
    EXPECT_EQ(ctx.sum_to_all(static_cast<std::int64_t>(pe.rank())),
              static_cast<std::int64_t>(p) * (p - 1) / 2);
    EXPECT_DOUBLE_EQ(ctx.max_to_all(static_cast<double>(pe.rank())), p - 1.0);
    EXPECT_EQ(ctx.max_to_all(static_cast<std::int64_t>(-pe.rank())), 0);
  });
}

TEST_P(ShmemCollP, BroadcastFromRoot) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto arr = ctx.malloc<int>(4);
    for (std::size_t i = 0; i < 4; ++i) {
      ctx.local(arr)[i] = pe.rank() == p - 1 ? static_cast<int>(i) + 7 : -1;
    }
    ctx.broadcast(arr, 4, p - 1);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(ctx.local(arr)[i], static_cast<int>(i) + 7);
  });
}

TEST_P(ShmemCollP, FcollectGathersEqualBlocks) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    auto src = ctx.malloc<int>(2);
    auto dst = ctx.malloc<int>(2 * static_cast<std::size_t>(p));
    ctx.local(src)[0] = pe.rank();
    ctx.local(src)[1] = pe.rank() + 1000;
    ctx.fcollect(dst, src, 2);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(ctx.local(dst)[2 * r], r);
      EXPECT_EQ(ctx.local(dst)[2 * r + 1], r + 1000);
    }
  });
}

TEST_P(ShmemCollP, AllgathervHelper) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    apps::ShmemVBuf<int> vb(ctx, 256);
    std::vector<int> mine(static_cast<std::size_t>(pe.rank() % 3 + 1), pe.rank());
    const auto all = apps::shmem_allgatherv<int>(ctx, vb, mine);
    std::vector<int> expect;
    for (int r = 0; r < p; ++r) expect.insert(expect.end(), static_cast<std::size_t>(r % 3 + 1), r);
    EXPECT_EQ(all, expect);
  });
}

TEST_P(ShmemCollP, AlltoallvHelper) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Ctx ctx(w, pe);
    apps::ShmemVBuf<int> vb(ctx, 1024);
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)] =
          std::vector<int>(static_cast<std::size_t>(d % 2 + 1), pe.rank() * 100 + d);
    }
    const auto recv = apps::shmem_alltoallv<int>(ctx, vb, send);
    for (int s = 0; s < p; ++s) {
      const auto& blk = recv[static_cast<std::size_t>(s)];
      ASSERT_EQ(blk.size(), static_cast<std::size_t>(pe.rank() % 2 + 1));
      for (int v : blk) EXPECT_EQ(v, s * 100 + pe.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, ShmemCollP, ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace o2k::shmem
