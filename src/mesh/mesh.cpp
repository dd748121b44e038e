#include "mesh/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <unordered_set>

#include "common/rng.hpp"

namespace o2k::mesh {

double signed_volume(const Vec3& p0, const Vec3& p1, const Vec3& p2, const Vec3& p3) {
  return (p1 - p0).cross(p2 - p0).dot(p3 - p0) / 6.0;
}

std::size_t TetMesh::alive_count() const {
  std::size_t n = 0;
  for (bool a : alive) n += a ? 1 : 0;
  return n;
}

std::vector<TetId> TetMesh::alive_ids() const {
  std::vector<TetId> out;
  out.reserve(alive_count());
  for (std::size_t t = 0; t < tets.size(); ++t) {
    if (alive[t]) out.push_back(static_cast<TetId>(t));
  }
  return out;
}

Vec3 TetMesh::centroid(TetId t) const {
  const Tet& e = tets[static_cast<std::size_t>(t)];
  Vec3 c;
  for (VertId v : e.v) c += verts[static_cast<std::size_t>(v)];
  return c / 4.0;
}

double TetMesh::volume(TetId t) const {
  const Tet& e = tets[static_cast<std::size_t>(t)];
  return signed_volume(verts[static_cast<std::size_t>(e.v[0])], verts[static_cast<std::size_t>(e.v[1])],
                       verts[static_cast<std::size_t>(e.v[2])], verts[static_cast<std::size_t>(e.v[3])]);
}

double TetMesh::total_volume() const {
  double v = 0.0;
  for (std::size_t t = 0; t < tets.size(); ++t) {
    if (alive[t]) v += volume(static_cast<TetId>(t));
  }
  return v;
}

TetId TetMesh::add_tet(const Tet& t, TetId parent_id) {
  Tet tt = t;
  const double vol =
      signed_volume(verts[static_cast<std::size_t>(tt.v[0])], verts[static_cast<std::size_t>(tt.v[1])],
                    verts[static_cast<std::size_t>(tt.v[2])], verts[static_cast<std::size_t>(tt.v[3])]);
  if (vol < 0.0) std::swap(tt.v[2], tt.v[3]);
  const auto id = static_cast<TetId>(tets.size());
  tets.push_back(tt);
  alive.push_back(true);
  parent.push_back(parent_id);
  return id;
}

VertId TetMesh::mid_vertex(EdgeKey e) {
  auto it = edge_mid.find(e);
  if (it != edge_mid.end()) return it->second;
  const Vec3 m =
      (verts[static_cast<std::size_t>(e.a)] + verts[static_cast<std::size_t>(e.b)]) * 0.5;
  const auto id = static_cast<VertId>(verts.size());
  verts.push_back(m);
  edge_mid.emplace(e, id);
  return id;
}

EdgeKey TetMesh::edge_of(TetId t, int local_edge) const {
  const Tet& e = tets[static_cast<std::size_t>(t)];
  const auto& le = kTetEdges[static_cast<std::size_t>(local_edge)];
  return EdgeKey(e.v[static_cast<std::size_t>(le[0])], e.v[static_cast<std::size_t>(le[1])]);
}

std::array<EdgeKey, 6> TetMesh::edges_of(TetId t) const {
  std::array<EdgeKey, 6> out;
  for (int i = 0; i < 6; ++i) out[static_cast<std::size_t>(i)] = edge_of(t, i);
  return out;
}

std::vector<EdgeKey> TetMesh::all_edges() const {
  std::unordered_set<EdgeKey, EdgeKeyHash> seen;
  for (std::size_t t = 0; t < tets.size(); ++t) {
    if (!alive[t]) continue;
    for (const EdgeKey& e : edges_of(static_cast<TetId>(t))) seen.insert(e);
  }
  // Hand out the edges in (a, b) order, not hash-layout order, so callers
  // see the same sequence on every run and platform.
  std::vector<EdgeKey> out(seen.begin(), seen.end());  // NOLINT(o2k-nondeterminism)
  std::sort(out.begin(), out.end(),
            [](const EdgeKey& x, const EdgeKey& y) { return std::tie(x.a, x.b) < std::tie(y.a, y.b); });
  return out;
}

void TetMesh::validate() const {
  O2K_CHECK(tets.size() == alive.size() && tets.size() == parent.size(),
            "mesh arrays out of sync");
  for (std::size_t t = 0; t < tets.size(); ++t) {
    for (VertId v : tets[t].v) {
      O2K_CHECK(v >= 0 && static_cast<std::size_t>(v) < verts.size(), "vertex index out of range");
    }
    if (alive[t]) {
      O2K_CHECK(volume(static_cast<TetId>(t)) > 0.0, "non-positive tet volume");
    }
  }
  // Visit order is irrelevant: every family is checked independently and
  // nothing here feeds simulated state.  NOLINTNEXTLINE(o2k-nondeterminism)
  for (const auto& [par, kids] : children) {
    O2K_CHECK(par >= 0 && static_cast<std::size_t>(par) < tets.size(), "bad family parent");
    O2K_CHECK(!kids.empty(), "empty refinement family");
    for (TetId k : kids) {
      O2K_CHECK(parent[static_cast<std::size_t>(k)] == par, "family child parent mismatch");
    }
  }
}

TetMesh make_box_mesh(int nx, int ny, int nz, double scale) {
  O2K_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1, "box mesh needs positive dimensions");
  TetMesh m;
  const int vx = nx + 1, vy = ny + 1, vz = nz + 1;
  m.verts.reserve(static_cast<std::size_t>(vx) * static_cast<std::size_t>(vy) *
                  static_cast<std::size_t>(vz));
  auto vid = [&](int i, int j, int k) {
    return static_cast<VertId>((static_cast<std::int64_t>(k) * vy + j) * vx + i);
  };
  for (int k = 0; k < vz; ++k) {
    for (int j = 0; j < vy; ++j) {
      for (int i = 0; i < vx; ++i) {
        m.verts.emplace_back(i * scale, j * scale, k * scale);
      }
    }
  }
  // Kuhn (Freudenthal) subdivision: six tets per cell, all sharing the main
  // diagonal (i,j,k)→(i+1,j+1,k+1); neighbouring cells' faces coincide.
  static constexpr int kPerm[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                      {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const int base[3] = {i, j, k};
        for (const auto& perm : kPerm) {
          int p[3] = {base[0], base[1], base[2]};
          Tet t;
          t.v[0] = vid(p[0], p[1], p[2]);
          for (int step = 0; step < 3; ++step) {
            ++p[perm[step]];
            t.v[static_cast<std::size_t>(step + 1)] = vid(p[0], p[1], p[2]);
          }
          m.add_tet(t, -1);
        }
      }
    }
  }
  return m;
}

std::uint64_t geo_edge_key(const Vec3& a, const Vec3& b) {
  return geo_edge_key_of_keys(geo_key(a), geo_key(b));
}

std::uint64_t geo_key(const Vec3& p) {
  auto q = [](double x) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(std::llround(x * 1048576.0)));
  };
  std::uint64_t s = 0x243f6a8885a308d3ULL;
  s ^= q(p.x) + 0x9e3779b97f4a7c15ULL + (s << 6) + (s >> 2);
  s ^= q(p.y) + 0x9e3779b97f4a7c15ULL + (s << 6) + (s >> 2);
  s ^= q(p.z) + 0x9e3779b97f4a7c15ULL + (s << 6) + (s >> 2);
  std::uint64_t st = s;
  return splitmix64(st);
}

}  // namespace o2k::mesh
