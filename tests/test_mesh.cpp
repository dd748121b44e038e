// Tests for the tetrahedral mesh substrate: generation, refinement
// templates, closure, coarsening, quality and the dual graph.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hpp"
#include "mesh/dualgraph.hpp"
#include "mesh/mesh.hpp"
#include "mesh/quality.hpp"
#include "mesh/refine.hpp"

namespace o2k::mesh {
namespace {

TEST(BoxMesh, CountsAndVolume) {
  for (int n : {1, 2, 3, 5}) {
    const TetMesh m = make_box_mesh(n, n, n, 1.0);
    EXPECT_EQ(m.tets.size(), static_cast<std::size_t>(6 * n * n * n));
    EXPECT_EQ(m.verts.size(), static_cast<std::size_t>((n + 1) * (n + 1) * (n + 1)));
    EXPECT_NEAR(m.total_volume(), static_cast<double>(n * n * n), 1e-9);
    m.validate();
  }
}

TEST(BoxMesh, AnisotropicAndScaled) {
  const TetMesh m = make_box_mesh(2, 3, 4, 0.5);
  EXPECT_EQ(m.alive_count(), static_cast<std::size_t>(6 * 24));
  EXPECT_NEAR(m.total_volume(), 24.0 * 0.125, 1e-9);
}

TEST(BoxMesh, AllVolumesPositive) {
  const TetMesh m = make_box_mesh(3, 3, 3);
  for (std::size_t t = 0; t < m.tets.size(); ++t) {
    EXPECT_GT(m.volume(static_cast<TetId>(t)), 0.0);
  }
}

TEST(BoxMesh, FacesMatchBetweenCells) {
  // Every interior face is shared by exactly two tets: the dual graph of an
  // n^3 box has 12n^3 - 6n^2 internal faces... simply check degree bounds.
  const TetMesh m = make_box_mesh(2, 2, 2);
  const DualGraph g = build_dual(m);
  for (const auto& adj : g.adj) {
    EXPECT_LE(adj.size(), 4u);
    EXPECT_GE(adj.size(), 1u);
  }
}

TEST(EdgeKeyTest, NormalisesOrder) {
  const EdgeKey a(3, 7), b(7, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(EdgeKeyHash{}(a), EdgeKeyHash{}(b));
  EXPECT_THROW(EdgeKey(4, 4), std::invalid_argument);
}

TEST(Classify, AllSixtyFourMasks) {
  int none = 0, bisect = 0, quarter = 0, octa = 0, illegal = 0;
  for (unsigned mask = 0; mask < 64; ++mask) {
    switch (classify(static_cast<std::uint8_t>(mask))) {
      case Pattern::kNone:
        ++none;
        break;
      case Pattern::kBisect:
        ++bisect;
        break;
      case Pattern::kQuarter:
        ++quarter;
        break;
      case Pattern::kOctasect:
        ++octa;
        break;
      case Pattern::kIllegal:
        ++illegal;
        break;
    }
  }
  EXPECT_EQ(none, 1);
  EXPECT_EQ(bisect, 6);
  EXPECT_EQ(quarter, 4);   // one per face
  EXPECT_EQ(octa, 1);
  EXPECT_EQ(illegal, 64 - 12);
}

TEST(Classify, ChildCountsAndWeights) {
  EXPECT_EQ(child_count(Pattern::kNone), 1);
  EXPECT_EQ(child_count(Pattern::kBisect), 2);
  EXPECT_EQ(child_count(Pattern::kQuarter), 4);
  EXPECT_EQ(child_count(Pattern::kOctasect), 8);
  EXPECT_EQ(predicted_weight(0), 1);
  EXPECT_EQ(predicted_weight(1), 2);
  EXPECT_EQ(predicted_weight(0b001011), 4);  // face abc
  EXPECT_EQ(predicted_weight(0b11), 4);      // {ab,ac} promotes to face abc
  EXPECT_EQ(predicted_weight(0b100001), 8);  // opposite edges: no face fits
  EXPECT_EQ(predicted_weight(0x3F), 8);
}

class TemplateVolume : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(TemplateVolume, ChildrenPartitionParentVolume) {
  // Single-tet mesh refined with each legal mask conserves volume and
  // produces the expected child count with positive volumes.
  const std::uint8_t mask = GetParam();
  TetMesh m;
  m.verts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0.2, 0.3, 1.1}};
  m.add_tet(Tet{{0, 1, 2, 3}}, -1);
  const double vol0 = m.total_volume();

  MarkSet marks;
  for (int le = 0; le < 6; ++le) {
    if (mask & (1u << le)) marks.insert(m.edge_of(0, le));
  }
  const auto st = refine(m, marks);
  EXPECT_EQ(st.new_tets, static_cast<std::size_t>(child_count(classify(mask))));
  EXPECT_NEAR(m.total_volume(), vol0, 1e-12);
  for (std::size_t t = 0; t < m.tets.size(); ++t) {
    if (m.alive[t]) {
      EXPECT_GT(m.volume(static_cast<TetId>(t)), 0.0);
    }
  }
  m.validate();
}

INSTANTIATE_TEST_SUITE_P(LegalMasks, TemplateVolume,
                         ::testing::Values<std::uint8_t>(
                             // 1:2 on each of the six edges
                             1, 2, 4, 8, 16, 32,
                             // 1:4 on each face
                             0b001011, 0b010101, 0b100110, 0b111000,
                             // 1:8
                             0b111111));

TEST(Refine, IllegalMaskRejectedWithoutClosure) {
  TetMesh m;
  m.verts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  m.add_tet(Tet{{0, 1, 2, 3}}, -1);
  MarkSet marks{m.edge_of(0, 0), m.edge_of(0, 5)};  // two opposite edges
  EXPECT_THROW(refine(m, marks), std::invalid_argument);
}

TEST(Closure, PromotesIllegalToFull) {
  TetMesh m;
  m.verts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  m.add_tet(Tet{{0, 1, 2, 3}}, -1);
  MarkSet marks{m.edge_of(0, 0), m.edge_of(0, 5)};
  close_marks(m, marks);
  EXPECT_EQ(mask_of(m, 0, marks), 0x3F);
  EXPECT_NO_THROW(refine(m, marks));
}

TEST(Closure, LeavesLegalPatternsAlone) {
  TetMesh m;
  m.verts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  m.add_tet(Tet{{0, 1, 2, 3}}, -1);
  MarkSet marks{m.edge_of(0, 2)};
  const int rounds = close_marks(m, marks);
  EXPECT_EQ(marks.size(), 1u);
  EXPECT_EQ(rounds, 1);
}

TEST(Closure, PropagatesAcrossSharedEdges) {
  TetMesh m = make_box_mesh(3, 3, 3);
  SphereFront front{Vec3(1.5, 1.5, 1.5), 0.9, 0.15};
  MarkSet marks = mark_edges(m, front);
  const std::size_t before = marks.size();
  ASSERT_GT(before, 0u);
  close_marks(m, marks);
  EXPECT_GE(marks.size(), before);
  for (TetId t : m.alive_ids()) {
    EXPECT_NE(classify(mask_of(m, t, marks)), Pattern::kIllegal);
  }
}

TEST(Closure, DeterministicFixpoint) {
  TetMesh m = make_box_mesh(3, 3, 3);
  SphereFront front{Vec3(1.2, 1.4, 1.6), 1.0, 0.2};
  MarkSet a = mark_edges(m, front);
  MarkSet b = a;
  close_marks(m, a);
  close_marks(m, b);
  EXPECT_EQ(a.size(), b.size());
}

TEST(Refine, WholeMeshConservesVolume) {
  TetMesh m = make_box_mesh(3, 3, 3);
  SphereFront front{Vec3(1.5, 1.5, 1.5), 0.9, 0.2};
  MarkSet marks = mark_edges(m, front);
  close_marks(m, marks);
  const double vol0 = m.total_volume();
  const std::size_t alive0 = m.alive_count();
  const auto st = refine(m, marks);
  EXPECT_GT(st.new_tets, 0u);
  EXPECT_GT(m.alive_count(), alive0);
  EXPECT_NEAR(m.total_volume(), vol0, 1e-9);
  m.validate();
}

TEST(Refine, SharedEdgeMidpointsCreatedOnce) {
  TetMesh m = make_box_mesh(2, 2, 2);
  SphereFront front{Vec3(1, 1, 1), 0.8, 0.3};
  MarkSet marks = mark_edges(m, front);
  close_marks(m, marks);
  refine(m, marks);
  // No two vertices may coincide.
  std::unordered_set<std::uint64_t> keys;
  for (const Vec3& v : m.verts) {
    EXPECT_TRUE(keys.insert(geo_key(v)).second) << "duplicate vertex at " << v;
  }
}

TEST(Refine, RepeatedAdaptationKeepsQuality) {
  TetMesh m = make_box_mesh(3, 3, 3);
  for (int k = 0; k < 3; ++k) {
    SphereFront front{Vec3(0.8 + 0.5 * k, 1.0 + 0.4 * k, 1.2 + 0.3 * k), 0.9, 0.15};
    MarkSet marks = mark_edges(m, front);
    close_marks(m, marks);
    refine(m, marks);
  }
  const QualityStats q = mesh_quality(m);
  EXPECT_GT(q.min_q, 0.01);
  EXPECT_GT(q.mean_q, 0.3);
  m.validate();
}

TEST(Coarsen, UndoesRefinementAwayFromFront) {
  TetMesh m = make_box_mesh(2, 2, 2);
  SphereFront front{Vec3(1, 1, 1), 0.7, 0.25};
  MarkSet marks = mark_edges(m, front);
  close_marks(m, marks);
  refine(m, marks);
  const std::size_t refined_count = m.alive_count();

  // Move the front far away: every family becomes coarsenable.
  SphereFront gone{Vec3(100, 100, 100), 0.7, 0.25};
  const std::size_t collapsed = coarsen(m, gone);
  EXPECT_GT(collapsed, 0u);
  EXPECT_LT(m.alive_count(), refined_count);
  EXPECT_EQ(m.alive_count(), static_cast<std::size_t>(6 * 8));  // back to the root mesh
  EXPECT_NEAR(m.total_volume(), 8.0, 1e-9);
  m.validate();
}

TEST(Coarsen, KeepsFamiliesNearFront) {
  TetMesh m = make_box_mesh(2, 2, 2);
  SphereFront front{Vec3(1, 1, 1), 0.7, 0.25};
  MarkSet marks = mark_edges(m, front);
  close_marks(m, marks);
  refine(m, marks);
  const std::size_t n = m.alive_count();
  // Coarsening against the same front must keep everything it refined.
  EXPECT_EQ(coarsen(m, front), 0u);
  EXPECT_EQ(m.alive_count(), n);
}

TEST(Quality, RegularTetIsOne) {
  const Vec3 p0(0, 0, 0), p1(1, 0, 0), p2(0.5, std::sqrt(3.0) / 2.0, 0),
      p3(0.5, std::sqrt(3.0) / 6.0, std::sqrt(6.0) / 3.0);
  EXPECT_NEAR(tet_quality(p0, p1, p2, p3), 1.0, 1e-9);
}

TEST(Quality, SliverNearZero) {
  EXPECT_LT(tet_quality({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0.5, 0.5, 1e-6}), 0.01);
}

TEST(DualGraphTest, SymmetricAndBounded) {
  const TetMesh m = make_box_mesh(3, 2, 2);
  const DualGraph g = build_dual(m);
  EXPECT_EQ(g.num_vertices(), m.alive_count());
  for (std::size_t i = 0; i < g.adj.size(); ++i) {
    for (int j : g.adj[i]) {
      const auto& back = g.adj[static_cast<std::size_t>(j)];
      EXPECT_NE(std::find(back.begin(), back.end(), static_cast<int>(i)), back.end());
    }
  }
}

TEST(DualGraphTest, CutCountsCrossEdges) {
  const TetMesh m = make_box_mesh(2, 2, 2);
  const DualGraph g = build_dual(m);
  std::vector<int> all_same(g.num_vertices(), 0);
  EXPECT_EQ(g.cut(all_same), 0u);
  std::vector<int> split(g.num_vertices(), 0);
  for (std::size_t i = g.num_vertices() / 2; i < g.num_vertices(); ++i) split[i] = 1;
  EXPECT_GT(g.cut(split), 0u);
  EXPECT_LE(g.cut(split), g.num_edges());
}

TEST(GeoKey, DistinctPointsDistinctKeys) {
  EXPECT_NE(geo_key({0, 0, 0}), geo_key({0, 0, 1e-3}));
  EXPECT_NE(geo_key({1, 2, 3}), geo_key({3, 2, 1}));
  EXPECT_EQ(geo_key({0.5, 0.25, 0.125}), geo_key({0.5, 0.25, 0.125}));
}

TEST(GeoKey, EdgeKeyOfKeysMatchesEdgeKey) {
  auto expect_same = [](const Vec3& a, const Vec3& b) {
    EXPECT_EQ(geo_edge_key_of_keys(geo_key(a), geo_key(b)), geo_edge_key(a, b)) << a << ' ' << b;
    EXPECT_EQ(geo_edge_key_of_keys(geo_key(b), geo_key(a)), geo_edge_key(a, b)) << a << ' ' << b;
  };
  // Lattice points (and their edge midpoints) as the box mesh produces them.
  const TetMesh m = make_box_mesh(3, 3, 3, 0.5);
  for (std::size_t t = 0; t < m.tets.size(); ++t) {
    for (const EdgeKey& e : m.edges_of(static_cast<TetId>(t))) {
      const Vec3& a = m.verts[static_cast<std::size_t>(e.a)];
      const Vec3& b = m.verts[static_cast<std::size_t>(e.b)];
      expect_same(a, b);
      expect_same(a, (a + b) * 0.5);
    }
  }
  Rng rng(41);
  for (int i = 0; i < 2000; ++i) {
    const Vec3 a(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50));
    const Vec3 b(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50));
    expect_same(a, b);
  }
}

TEST(FrontTest, CutsDetectsShellCrossings) {
  SphereFront f{Vec3(0, 0, 0), 1.0, 0.1};
  EXPECT_TRUE(f.cuts({0.95, 0, 0}, {1.05, 0, 0}));   // straddles the surface
  EXPECT_TRUE(f.cuts({0.0, 0, 0}, {2.0, 0, 0}));     // passes through the shell
  EXPECT_FALSE(f.cuts({0.1, 0, 0}, {0.2, 0, 0}));    // deep inside
  EXPECT_FALSE(f.cuts({3.0, 0, 0}, {4.0, 0, 0}));    // far outside
}

}  // namespace
}  // namespace o2k::mesh
