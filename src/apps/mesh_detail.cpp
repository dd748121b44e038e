#include "apps/mesh_detail.hpp"

#include "common/check.hpp"

namespace o2k::apps::detail {

mesh::VertId LocalMesh::vert_id(const Vec3& p) {
  const std::uint64_t key = mesh::geo_key(p);
  auto it = vert_by_key_.find(key);
  if (it != vert_by_key_.end()) return it->second;
  const auto id = static_cast<mesh::VertId>(verts.size());
  verts.push_back(p);
  vkeys.push_back(key);
  vert_by_key_.emplace(key, id);
  return id;
}

void LocalMesh::add_record(const TetRec& r) {
  mesh::Tet t;
  for (int k = 0; k < 4; ++k) {
    t.v[static_cast<std::size_t>(k)] = vert_id(Vec3(r.c[k][0], r.c[k][1], r.c[k][2]));
  }
  tets.push_back(t);
}

TetRec LocalMesh::record_of(std::size_t t, std::uint32_t mask) const {
  TetRec r;
  const mesh::Tet& e = tets[t];
  for (int k = 0; k < 4; ++k) {
    const Vec3& p = verts[static_cast<std::size_t>(e.v[static_cast<std::size_t>(k)])];
    r.c[k][0] = p.x;
    r.c[k][1] = p.y;
    r.c[k][2] = p.z;
  }
  r.mask = mask;
  return r;
}

Vec3 LocalMesh::centroid(std::size_t t) const {
  const mesh::Tet& e = tets[t];
  Vec3 c;
  for (mesh::VertId v : e.v) c += verts[static_cast<std::size_t>(v)];
  return c / 4.0;
}

double LocalMesh::volume(std::size_t t) const {
  const mesh::Tet& e = tets[t];
  return mesh::signed_volume(
      verts[static_cast<std::size_t>(e.v[0])], verts[static_cast<std::size_t>(e.v[1])],
      verts[static_cast<std::size_t>(e.v[2])], verts[static_cast<std::size_t>(e.v[3])]);
}

double LocalMesh::total_volume() const {
  double v = 0.0;
  for (std::size_t t = 0; t < tets.size(); ++t) v += volume(t);
  return v;
}

void LocalMesh::clear() {
  verts.clear();
  vkeys.clear();
  tets.clear();
  vert_by_key_.clear();
}

std::size_t mark_local(const LocalMesh& lm, const mesh::SphereFront& front, MarkSet64& marks) {
  std::size_t added = 0;
  for (std::size_t t = 0; t < lm.tets.size(); ++t) {
    const mesh::Tet& e = lm.tets[t];
    for (int le = 0; le < 6; ++le) {
      const auto& ends = mesh::kTetEdges[static_cast<std::size_t>(le)];
      const Vec3& a = lm.verts[static_cast<std::size_t>(e.v[static_cast<std::size_t>(ends[0])])];
      const Vec3& b = lm.verts[static_cast<std::size_t>(e.v[static_cast<std::size_t>(ends[1])])];
      if (!front.cuts(a, b)) continue;
      if (marks.insert(lm.edge_key(t, le))) ++added;
    }
  }
  return added;
}

std::uint8_t local_mask(const LocalMesh& lm, std::size_t t, const MarkSet64& marks) {
  std::uint8_t mask = 0;
  for (int le = 0; le < 6; ++le) {
    if (marks.contains(lm.edge_key(t, le))) mask |= static_cast<std::uint8_t>(1u << le);
  }
  return mask;
}

std::size_t close_local_round(const LocalMesh& lm, const MarkSet64& marks,
                              std::vector<std::uint64_t>& additions) {
  std::size_t promotions = 0;
  MarkSet64 adds;
  for (std::size_t t = 0; t < lm.tets.size(); ++t) {
    const std::uint8_t mask = local_mask(lm, t, marks);
    const std::uint8_t want = mesh::promote_mask(mask);
    if (want == mask) continue;
    ++promotions;
    for (int le = 0; le < 6; ++le) {
      if ((want & (1u << le)) == 0 || (mask & (1u << le)) != 0) continue;
      const std::uint64_t key = lm.edge_key(t, le);
      if (!marks.contains(key) && adds.insert(key)) additions.push_back(key);
    }
  }
  return promotions;
}

LocalRefineStats refine_local(LocalMesh& lm, const MarkSet64& marks) {
  LocalRefineStats st;
  const std::size_t old_n = lm.tets.size();
  const std::size_t old_verts = lm.verts.size();
  std::vector<mesh::Tet> out;
  out.reserve(old_n * 2);
  for (std::size_t t = 0; t < old_n; ++t) {
    const std::uint8_t mask = local_mask(lm, t, marks);
    O2K_REQUIRE(mesh::classify(mask) != mesh::Pattern::kIllegal,
                "refine_local: marks not closed");
    if (mask == 0) {
      out.push_back(lm.tets[t]);
      continue;
    }
    ++st.refined;
    mesh::append_children(
        lm.tets[t], mask,
        [&](mesh::EdgeKey e) {
          return lm.vert_id((lm.verts[static_cast<std::size_t>(e.a)] +
                             lm.verts[static_cast<std::size_t>(e.b)]) *
                            0.5);
        },
        [&](mesh::VertId v) { return lm.verts[static_cast<std::size_t>(v)]; }, out);
  }
  st.new_tets = out.size() - (old_n - st.refined);
  st.new_verts = lm.verts.size() - old_verts;
  lm.tets = std::move(out);
  return st;
}

}  // namespace o2k::apps::detail
