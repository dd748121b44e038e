// Tetrahedral mesh container and structured generator.
//
// This is the serial substrate under the paper's "dynamic remeshing"
// application: an unstructured tetrahedral mesh supporting 3D_TAG-style
// edge-based refinement (see refine.hpp).  Vertices are never removed;
// tetrahedra carry an alive flag plus parent/children links so refinement
// families can be coarsened back.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/vec3.hpp"

namespace o2k::mesh {

using VertId = std::int32_t;
using TetId = std::int32_t;

/// One tetrahedron: four vertex indices, positively oriented
/// (signed volume > 0).
struct Tet {
  std::array<VertId, 4> v{-1, -1, -1, -1};
  friend bool operator==(const Tet&, const Tet&) = default;
};

/// Undirected edge between two vertices, stored normalised (a < b).
struct EdgeKey {
  VertId a = -1;
  VertId b = -1;
  EdgeKey() = default;
  EdgeKey(VertId x, VertId y) : a(x < y ? x : y), b(x < y ? y : x) {
    O2K_REQUIRE(x != y, "degenerate edge");
  }
  friend bool operator==(const EdgeKey&, const EdgeKey&) = default;
};

struct EdgeKeyHash {
  std::size_t operator()(const EdgeKey& e) const {
    std::uint64_t h = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.a)) << 32) |
                      static_cast<std::uint32_t>(e.b);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// Local edge numbering of a tet (a,b,c,d):
///   0:(a,b) 1:(a,c) 2:(a,d) 3:(b,c) 4:(b,d) 5:(c,d)
inline constexpr std::array<std::array<int, 2>, 6> kTetEdges{
    {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}};

/// Edge-index sets of the four faces (abc, abd, acd, bcd).
inline constexpr std::array<std::uint8_t, 4> kFaceEdgeMasks{
    static_cast<std::uint8_t>((1 << 0) | (1 << 1) | (1 << 3)),   // abc
    static_cast<std::uint8_t>((1 << 0) | (1 << 2) | (1 << 4)),   // abd
    static_cast<std::uint8_t>((1 << 1) | (1 << 2) | (1 << 5)),   // acd
    static_cast<std::uint8_t>((1 << 3) | (1 << 4) | (1 << 5))};  // bcd

/// Signed volume of the tetrahedron (p0,p1,p2,p3).
double signed_volume(const Vec3& p0, const Vec3& p1, const Vec3& p2, const Vec3& p3);

/// A tetrahedral mesh with refinement-family bookkeeping.
class TetMesh {
 public:
  std::vector<Vec3> verts;
  std::vector<Tet> tets;
  std::vector<bool> alive;
  std::vector<TetId> parent;                          ///< -1 for root elements
  std::unordered_map<TetId, std::vector<TetId>> children;  ///< refinement families
  std::unordered_map<EdgeKey, VertId, EdgeKeyHash> edge_mid;  ///< split-edge midpoints

  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] std::vector<TetId> alive_ids() const;

  [[nodiscard]] Vec3 centroid(TetId t) const;
  [[nodiscard]] double volume(TetId t) const;
  [[nodiscard]] double total_volume() const;

  /// Appends a tet (fixing orientation if needed); returns its id.
  TetId add_tet(const Tet& t, TetId parent_id);

  /// Midpoint vertex of an edge, creating it on first use.
  VertId mid_vertex(EdgeKey e);
  [[nodiscard]] EdgeKey edge_of(TetId t, int local_edge) const;

  /// All six edges of a tet.
  [[nodiscard]] std::array<EdgeKey, 6> edges_of(TetId t) const;

  /// Every distinct edge of the alive mesh.
  [[nodiscard]] std::vector<EdgeKey> all_edges() const;

  /// Consistency check: positive volumes, valid indices, family closure.
  void validate() const;
};

/// Structured generator: an nx×ny×nz box of unit cells, each split into six
/// tetrahedra (Kuhn subdivision) so faces match between neighbouring cells.
/// Domain spans [0, nx]×[0, ny]×[0, nz] scaled by `scale`.
TetMesh make_box_mesh(int nx, int ny, int nz, double scale = 1.0);

/// Deterministic 64-bit geometric key for a point (used by the parallel
/// codes to agree on vertex identity without a shared numbering).
std::uint64_t geo_key(const Vec3& p);

/// Order-independent key for an edge given its endpoint *positions*.
/// Distinct edges can share a midpoint (an apex-to-face-mid edge and the
/// corresponding mid-to-mid edge meet at the same point), so edge identity
/// must hash both endpoints, never the midpoint.  Never 0.
std::uint64_t geo_edge_key(const Vec3& a, const Vec3& b);

/// The same key from the endpoints' geo keys:
/// geo_edge_key(a, b) == geo_edge_key_of_keys(geo_key(a), geo_key(b)).
inline std::uint64_t geo_edge_key_of_keys(std::uint64_t ka, std::uint64_t kb) {
  if (ka > kb) std::swap(ka, kb);
  std::uint64_t s = ka ^ (kb * 0x9e3779b97f4a7c15ULL) ^ (kb >> 31);
  const std::uint64_t key = splitmix64(s);
  return key == 0 ? 1 : key;  // 0 is reserved by the SAS edge table and MarkSet64
}

}  // namespace o2k::mesh
