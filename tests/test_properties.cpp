// Randomised property tests: invariants that must hold for *any* input,
// exercised over seeded random geometry and seeds (deterministic runs).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mesh/quality.hpp"
#include "mesh/refine.hpp"
#include "nbody/octree.hpp"
#include "plum/partition.hpp"
#include "plum/remap.hpp"

namespace o2k {
namespace {

// ---------------------------------------------------------------- mesh ----

class RandomTetTemplates : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTetTemplates, EveryLegalMaskPartitionsVolume) {
  // Property: for a random (non-degenerate) tetrahedron and every legal
  // mark mask, the children partition the parent's volume exactly and are
  // all positively oriented.
  Rng rng(GetParam());
  mesh::TetMesh base;
  for (;;) {
    base.verts.clear();
    for (int k = 0; k < 4; ++k) {
      base.verts.emplace_back(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
    if (std::abs(mesh::signed_volume(base.verts[0], base.verts[1], base.verts[2],
                                     base.verts[3])) > 1e-3) {
      break;
    }
  }
  const std::uint8_t legal_masks[] = {1,        2,        4,        8,       16, 32,
                                      0b001011, 0b010101, 0b100110, 0b111000, 0x3F};
  for (const std::uint8_t mask : legal_masks) {
    mesh::TetMesh m;
    m.verts = base.verts;
    m.add_tet(mesh::Tet{{0, 1, 2, 3}}, -1);
    const double vol0 = m.total_volume();
    mesh::MarkSet marks;
    for (int le = 0; le < 6; ++le) {
      if (mask & (1u << le)) marks.insert(m.edge_of(0, le));
    }
    mesh::refine(m, marks);
    EXPECT_NEAR(m.total_volume(), vol0, 1e-12 + 1e-9 * vol0) << "mask " << int(mask);
    for (std::size_t t = 0; t < m.tets.size(); ++t) {
      if (m.alive[t]) {
        EXPECT_GT(m.volume(static_cast<mesh::TetId>(t)), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTetTemplates,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class RandomFrontClosure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFrontClosure, ClosureAlwaysLegalAndVolumePreserved) {
  // Property: for a random spherical front, closure leaves every element
  // legal, refinement preserves volume, and promote_mask is idempotent.
  Rng rng(GetParam());
  mesh::TetMesh m = mesh::make_box_mesh(3, 3, 3);
  for (int phase = 0; phase < 2; ++phase) {
    const mesh::SphereFront f{
        Vec3(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 3)),
        rng.uniform(0.4, 1.4), rng.uniform(0.1, 0.4)};
    mesh::MarkSet marks = mesh::mark_edges(m, f);
    mesh::close_marks(m, marks);
    for (const mesh::TetId t : m.alive_ids()) {
      const std::uint8_t mask = mesh::mask_of(m, t, marks);
      EXPECT_NE(mesh::classify(mask), mesh::Pattern::kIllegal);
      EXPECT_EQ(mesh::promote_mask(mask), mask);  // idempotent on legal masks
    }
    const double vol = m.total_volume();
    mesh::refine(m, marks);
    EXPECT_NEAR(m.total_volume(), vol, 1e-9 * vol + 1e-12);
  }
  m.validate();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFrontClosure,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

TEST(PromoteMaskProperty, AlwaysReturnsLegalSuperset) {
  for (unsigned mask = 0; mask < 64; ++mask) {
    const auto want = mesh::promote_mask(static_cast<std::uint8_t>(mask));
    EXPECT_NE(mesh::classify(want), mesh::Pattern::kIllegal) << mask;
    EXPECT_EQ(want & mask, mask) << "must be a superset of " << mask;
  }
}

// --------------------------------------------------------------- nbody ----

class RandomCluster : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCluster, OctreeInvariants) {
  const auto seed = GetParam();
  const auto bodies = seed % 2 == 0 ? nbody::make_plummer(777, seed)
                                    : nbody::make_uniform_sphere(777, seed);
  const nbody::Octree tree(bodies);
  // Root accounts for every body and all the mass.
  EXPECT_EQ(tree.cells()[0].count, 777);
  double mass = 0.0;
  for (const auto& b : bodies) mass += b.mass;
  EXPECT_NEAR(tree.cells()[0].mass, mass, 1e-12);
  // Every cell's count equals the sum of its children's.
  for (const auto& c : tree.cells()) {
    std::int32_t sum = 0;
    for (std::int32_t ch : c.child) {
      if (ch == -1) continue;
      sum += nbody::Cell::is_body(ch)
                 ? 1
                 : tree.cells()[static_cast<std::size_t>(ch)].count;
    }
    if (c.count > 1) {
      EXPECT_EQ(sum, c.count);
    }
  }
  // Tree order is a permutation.
  const auto order = tree.bodies_in_tree_order();
  EXPECT_EQ(order.size(), bodies.size());
}

TEST_P(RandomCluster, ForcesAntisymmetricInAggregate) {
  // Property: with θ=0 the walk degenerates to direct summation, whose
  // total momentum change over a step is ~0 (Newton's third law).
  const auto seed = GetParam();
  auto bodies = nbody::make_uniform_sphere(128, seed);
  const nbody::Octree tree(bodies);
  nbody::WalkStats ws{};
  Vec3 total;
  for (auto& b : bodies) {
    b.acc = tree.accel(b, bodies, /*theta=*/0.0, 0.05, ws);
    total += b.acc * b.mass;
  }
  EXPECT_LT(total.norm(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCluster, ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------- plum ----

class RandomClouds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomClouds, RibIsTotalAndReasonablyBalanced) {
  Rng rng(GetParam());
  const int nparts = 2 + static_cast<int>(rng.next_below(15));
  std::vector<plum::Element> elems(600 + rng.next_below(600));
  for (auto& e : elems) {
    e.pos = Vec3(rng.normal(), rng.normal() * 0.3, rng.normal() * 3.0);
    e.weight = rng.uniform(0.2, 5.0);
  }
  const auto part = plum::rib_partition(elems, nparts);
  ASSERT_EQ(part.size(), elems.size());
  const auto w = plum::part_weights(elems, part, nparts);
  for (double x : w) EXPECT_GT(x, 0.0);  // no empty part
  EXPECT_LT(plum::imbalance(elems, part, nparts), 1.6);
}

TEST_P(RandomClouds, GreedyWithinHalfOfOptimalAssignment) {
  // Property: greedy max-weight matching retains at least half the optimal
  // retained weight (the classical greedy-matching bound), and optimal is
  // at least as good as keeping labels in place.
  Rng rng(GetParam());
  const int p = 2 + static_cast<int>(rng.next_below(6));  // <= 7: exact solver feasible
  const std::size_t n = 400;
  std::vector<int> cur(n), part(n);
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    cur[i] = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p)));
    part[i] = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p)));
    w[i] = rng.uniform(0.1, 3.0);
  }
  const auto s = plum::similarity_matrix(cur, part, w, p);
  const double greedy = plum::retained_weight(s, plum::assign_greedy(s));
  const double optimal = plum::retained_weight(s, plum::assign_optimal(s));
  std::vector<int> identity(static_cast<std::size_t>(p));
  for (int l = 0; l < p; ++l) identity[static_cast<std::size_t>(l)] = l;
  EXPECT_GE(2.0 * greedy + 1e-9, optimal);
  EXPECT_GE(optimal + 1e-9, plum::retained_weight(s, identity));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomClouds,
                         ::testing::Values(7, 14, 28, 56, 112, 224, 448, 896));

}  // namespace
}  // namespace o2k
