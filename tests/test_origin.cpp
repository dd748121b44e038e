// Unit tests for the Origin2000 machine model (topology + cost formulas).
#include <gtest/gtest.h>

#include "origin/params.hpp"

namespace o2k::origin {
namespace {

TEST(Topology, SameNodeIsZeroHops) {
  const auto p = MachineParams::origin2000();
  EXPECT_EQ(p.hops(0, 0), 0);
  EXPECT_EQ(p.hops(0, 1), 0);  // two PEs per node
  EXPECT_EQ(p.hops(62, 63), 0);
}

TEST(Topology, HopsAreSymmetric) {
  const auto p = MachineParams::origin2000();
  for (int a = 0; a < 64; a += 5) {
    for (int b = 0; b < 64; b += 7) {
      EXPECT_EQ(p.hops(a, b), p.hops(b, a));
    }
  }
}

TEST(Topology, HammingDistanceOfNodes) {
  const auto p = MachineParams::origin2000();
  // PEs 0 (node 0) and 2 (node 1): nodes differ in one bit.
  EXPECT_EQ(p.hops(0, 2), 1);
  // node 0 vs node 3 (0b11): two bits.
  EXPECT_EQ(p.hops(0, 6), 2);
  // node 0 vs node 31 (0b11111): five bits — the 64-PE diameter.
  EXPECT_EQ(p.hops(0, 62), 5);
}

TEST(Topology, MaxHopsMatchesDiameter) {
  const auto p = MachineParams::origin2000();
  EXPECT_EQ(p.max_hops(1), 0);
  EXPECT_EQ(p.max_hops(2), 0);   // one node
  EXPECT_EQ(p.max_hops(4), 1);   // two nodes
  EXPECT_EQ(p.max_hops(64), 5);  // 32 nodes
}

TEST(Costs, TreeBarrierScalesWithLogP) {
  EXPECT_DOUBLE_EQ(MachineParams::tree_barrier_ns(1, 1000.0), 0.0);
  EXPECT_DOUBLE_EQ(MachineParams::tree_barrier_ns(2, 1000.0), 1000.0);
  EXPECT_DOUBLE_EQ(MachineParams::tree_barrier_ns(8, 1000.0), 3000.0);
  EXPECT_DOUBLE_EQ(MachineParams::tree_barrier_ns(64, 1000.0), 6000.0);
  // Non-power-of-two rounds up.
  EXPECT_DOUBLE_EQ(MachineParams::tree_barrier_ns(5, 1000.0), 3000.0);
}

TEST(Costs, RemoteReadPremiumGrowsWithDistance) {
  const auto p = MachineParams::origin2000();
  EXPECT_DOUBLE_EQ(p.remote_read_premium_ns(0, 1), 0.0);  // same node
  const double near = p.remote_read_premium_ns(0, 2);
  const double far = p.remote_read_premium_ns(0, 62);
  EXPECT_GT(near, 0.0);
  EXPECT_GT(far, near);
}

TEST(Costs, MpWireMonotoneInSize) {
  const auto p = MachineParams::origin2000();
  EXPECT_LT(p.mp_wire_ns(0, 2, 8), p.mp_wire_ns(0, 2, 8192));
  EXPECT_LT(p.mp_wire_ns(0, 2, 8), p.mp_wire_ns(0, 62, 8));
}

TEST(Costs, ShmemBeatsMpOnSmallTransfers) {
  const auto p = MachineParams::origin2000();
  const double shmem = p.shmem_transfer_ns(0, 2, 8);
  const double mp = p.mp_o_send_ns + p.mp_wire_ns(0, 2, 8) + p.mp_o_recv_ns;
  EXPECT_LT(shmem, mp);
}

TEST(Costs, MemcpyLinear) {
  const auto p = MachineParams::origin2000();
  EXPECT_NEAR(p.memcpy_ns(2000), 2.0 * p.memcpy_ns(1000), 1e-9);
}

TEST(Params, RequiresValidPeIds) {
  const auto p = MachineParams::origin2000();
  EXPECT_THROW(static_cast<void>(p.hops(-1, 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(p.max_hops(0)), std::invalid_argument);
}

// The conservative lookahead bounds how soon any cross-domain event can
// land: every inter-node path pays at least one router hop, and every
// origination pays its model's overhead first.  It must be positive (or
// domains could never advance independently) and no larger than any of the
// cross-node event paths it summarises.
TEST(Costs, CrossDomainLookaheadIsConservative) {
  const auto p = MachineParams::origin2000();
  const double la = p.cross_domain_lookahead_ns();
  EXPECT_GT(la, 0.0);
  EXPECT_LE(la, 2.0 * p.router_hop_ns);                  // remote coherence round
  EXPECT_LE(la, p.shmem_o_ns + p.router_hop_ns);         // one-sided put/atomic
  EXPECT_LE(la, p.mp_o_send_ns + p.router_hop_ns);       // eager send
  // Scaling the machine beyond 64 PEs keeps per-hop costs, so the bound
  // survives origin2000_scaled topologies unchanged.
  EXPECT_EQ(la, MachineParams::origin2000_scaled(1024).cross_domain_lookahead_ns());
}

TEST(KernelCostsTest, AllPositive) {
  const auto k = KernelCosts::origin2000();
  EXPECT_GT(k.body_cell_interaction_ns, 0.0);
  EXPECT_GT(k.tree_insert_ns, 0.0);
  EXPECT_GT(k.tet_refine_ns, 0.0);
  EXPECT_GT(k.edge_mark_ns, 0.0);
  EXPECT_GT(k.partition_vertex_ns, 0.0);
}

}  // namespace
}  // namespace o2k::origin
