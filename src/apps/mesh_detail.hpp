// Internals shared by the MP and SHMEM remeshing codes: a rank-local mesh
// with geometric vertex identity, plus the marking/closure/refinement
// primitives expressed over it.
//
// Ranks never share a vertex numbering — element records travel as raw
// coordinates and are re-deduplicated on arrival via geo_key (DESIGN.md §2).
// A mark on a partition-boundary edge is communicated as the geo key of the
// edge midpoint, which both sides compute identically.  Geometric marking
// is consistent across ranks by construction, so only *promotion-induced*
// marks need exchanging during closure.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "mesh/mesh.hpp"
#include "mesh/refine.hpp"

namespace o2k::apps::detail {

/// One element on the wire: four corner coordinates + its mark mask.
struct TetRec {
  double c[4][3];
  std::uint32_t mask = 0;
  std::int32_t pad = 0;
};

/// Element summary for the PLUM gather (centroid + predicted weight).
struct ElemRec {
  double x, y, z;
  double w;
  std::int32_t owner;
  std::int32_t pad = 0;
};

/// Marked edges, identified by their geo edge keys (never 0).  A
/// power-of-two open-addressing set with linear probing, in which slot
/// value 0 means empty.  Nothing iterates it, so its layout never reaches
/// simulated state.
class MarkSet64 {
 public:
  /// Adds `key`; true if it was not present yet.
  bool insert(std::uint64_t key) {
    O2K_CHECK(key != 0, "MarkSet64: key 0 is the empty slot");
    std::size_t i = slot_of(key);
    for (; slots_[i] != 0; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
    }
    slots_[i] = key;
    if (++size_ * 2 > slots_.size()) grow();
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    for (std::size_t i = slot_of(key); slots_[i] != 0; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// Fibonacci hashing: the top bits of key * 2^64/phi, so keys that agree
  /// in their low bits still spread.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void grow() {
    std::vector<std::uint64_t> old(slots_.size() * 2, 0);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    --shift_;
    for (std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = slot_of(key);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_ = std::vector<std::uint64_t>(16, 0);
  std::size_t mask_ = 15;
  int shift_ = 60;  ///< 64 - log2(slots_.size())
  std::size_t size_ = 0;
};

/// Rank-local mesh with geometric vertex dedup.
class LocalMesh {
 public:
  std::vector<Vec3> verts;
  std::vector<std::uint64_t> vkeys;  ///< geo_key(verts[i]), kept in step with verts
  std::vector<mesh::Tet> tets;

  /// Find-or-create a vertex by position (geo_key identity).
  mesh::VertId vert_id(const Vec3& p);

  void add_record(const TetRec& r);
  [[nodiscard]] TetRec record_of(std::size_t t, std::uint32_t mask) const;

  [[nodiscard]] Vec3 centroid(std::size_t t) const;
  [[nodiscard]] double volume(std::size_t t) const;
  [[nodiscard]] double total_volume() const;

  /// Geo edge key of a local edge, from its endpoints' cached vertex keys.
  [[nodiscard]] std::uint64_t edge_key(const mesh::EdgeKey& e) const {
    return mesh::geo_edge_key_of_keys(vkey(e.a), vkey(e.b));
  }
  [[nodiscard]] std::uint64_t edge_key(std::size_t t, int local_edge) const {
    const mesh::Tet& e = tets[t];
    const auto& le = mesh::kTetEdges[static_cast<std::size_t>(local_edge)];
    return mesh::geo_edge_key_of_keys(vkey(e.v[static_cast<std::size_t>(le[0])]),
                                      vkey(e.v[static_cast<std::size_t>(le[1])]));
  }

  void clear();

 private:
  [[nodiscard]] std::uint64_t vkey(mesh::VertId v) const {
    return vkeys[static_cast<std::size_t>(v)];
  }

  std::unordered_map<std::uint64_t, mesh::VertId> vert_by_key_;
};

/// Mark every local edge the front cuts; returns number of (new) marks.
std::size_t mark_local(const LocalMesh& lm, const mesh::SphereFront& front, MarkSet64& marks);

/// One Jacobi closure round against a *frozen* mark set: appends the geo
/// keys this rank's illegal elements want marked to `additions` (without
/// modifying `marks` — the caller exchanges all ranks' additions and
/// applies the union, so every rank walks the same deterministic
/// trajectory as the serial close_marks).  Returns promoted elements.
std::size_t close_local_round(const LocalMesh& lm, const MarkSet64& marks,
                              std::vector<std::uint64_t>& additions);

/// 6-bit mask of a local tet against the marks.
std::uint8_t local_mask(const LocalMesh& lm, std::size_t t, const MarkSet64& marks);

struct LocalRefineStats {
  std::size_t refined = 0;
  std::size_t new_tets = 0;
  std::size_t new_verts = 0;
};

/// Refine the whole local mesh in place according to the (closed) marks.
LocalRefineStats refine_local(LocalMesh& lm, const MarkSet64& marks);

}  // namespace o2k::apps::detail
