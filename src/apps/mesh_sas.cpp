// CC-SAS dynamic remeshing: one shared mesh, no load balancer at all.
//
// The mesh lives in shared arrays (vertices, tets, alive flags); edge marks
// and midpoint deduplication go through a shared hash table (SasEdgeTable)
// whose updates are all order-independent RMWs.  Marking and closure are
// parallel sweeps — closure is Jacobi-style against round-stamped marks,
// converging through a deterministic reduction.  Refinement is the classic
// shared-memory count → prefix → fill pattern: a *dynamically scheduled*
// mask sweep (self-scheduling in virtual-time order — the shared-memory
// answer to load imbalance, replacing PLUM entirely), then barrier-staged
// id assignment that gives every PE a deterministic vertex/element id range
// in place of contended fetch_add allocation.  The model's price appears
// automatically: new elements land on pages homed wherever their creating
// PE first touched them, so the next phase's sweeps pay remote-miss
// premiums when the front moves — the effect the paper contrasts with the
// message-passing codes' explicit remap cost.
//
// Every charge here is a pure function of barrier-separated state (the
// table charges per *key*, the dispatcher breaks clock ties by rank), so
// mesh/CC-SAS virtual times are bit-identical across host worker counts at
// every P — the same contract the statically partitioned apps meet.
#include <array>
#include <mutex>
#include <vector>

#include "apps/mesh_app.hpp"
#include "apps/sas_table.hpp"
#include "common/check.hpp"
#include "common/overlay.hpp"
#include "mesh/refine.hpp"
#include "sas/sas.hpp"

namespace o2k::apps {

AppReport run_mesh_sas(rt::Machine& machine, int nprocs, const MeshConfig& cfg) {
  O2K_REQUIRE(cfg.phases >= 1, "mesh: need at least one phase");
  const auto kc = origin::KernelCosts::origin2000();

  const std::size_t cap_tets = cfg.element_capacity();
  const std::size_t cap_verts = cap_tets;  // mids are bounded by edges ~ tets
  const std::size_t table_cap = 2 * cap_tets;  // edges outnumber elements near the front

  const std::size_t arena_bytes = cap_tets * (sizeof(mesh::Tet) + 2) +
                                  cap_verts * sizeof(Vec3) +
                                  2 * table_cap * 4 * sizeof(std::uint64_t) + (8u << 20);
  sas::World world(machine.params(), nprocs, arena_bytes);

  auto tets_arr = world.alloc<mesh::Tet>(cap_tets, "tets");
  auto alive_arr = world.alloc<std::uint8_t>(cap_tets, "alive");
  auto masks_arr = world.alloc<std::uint8_t>(cap_tets, "masks");
  auto verts_arr = world.alloc<Vec3>(cap_verts, "verts");
  auto counters = world.alloc<std::int64_t>(2, "counters");  // [0]=ntets [1]=nverts
  auto counts_arr = world.alloc<std::int64_t>(2 * static_cast<std::size_t>(nprocs),
                                              "refine_counts");  // per-PE [mids][kids]
  SasEdgeTable table(world, table_cap);

  // ---- uncharged setup: the initial mesh, written serially.
  {
    const auto gm = mesh::make_box_mesh(cfg.nx, cfg.ny, cfg.nz, cfg.scale);
    O2K_REQUIRE(gm.tets.size() <= cap_tets && gm.verts.size() <= cap_verts,
                "mesh sas: capacity too small for the initial mesh");
    auto tets = world.span(tets_arr);
    auto alive = world.span(alive_arr);
    auto verts = world.span(verts_arr);
    std::copy(gm.tets.begin(), gm.tets.end(), tets.begin());
    std::copy(gm.verts.begin(), gm.verts.end(), verts.begin());
    std::fill(alive.begin(), alive.begin() + static_cast<std::ptrdiff_t>(gm.tets.size()), 1);
    // Uncharged serial setup: no Pe/Team exists yet, so there is nothing to
    // annotate — the run-time accesses below all go through charged
    // accessors.  NOLINTNEXTLINE(o2k-sas-touch)
    world.span(counters)[0] = static_cast<std::int64_t>(gm.tets.size());
    world.span(counters)[1] = static_cast<std::int64_t>(gm.verts.size());  // NOLINT(o2k-sas-touch)
  }

  std::map<std::string, double> checks;
  std::mutex checks_mu;

  auto rr = machine.run(nprocs, [&](rt::Pe& pe) {
    sas::Team team(world, pe);
    const int P = pe.size();
    const int me = pe.rank();

    auto tets = world.span(tets_arr);
    auto alive = world.span(alive_arr);
    auto masks = world.span(masks_arr);
    auto verts = world.span(verts_arr);

    auto edge_key_of = [&](mesh::VertId a, mesh::VertId b) {
      return mesh::geo_edge_key(verts[static_cast<std::size_t>(a)],
                                verts[static_cast<std::size_t>(b)]);
    };

    // Phase count and solver weight via the campaign overlay (see mesh_mp.cpp).
    for (int k = 0;
         k < static_cast<int>(common::overlay_i64("mesh.phases", cfg.phases)); ++k) {
      pe.checkpoint("phase");  // clock-neutral; no-op unless a campaign armed it
      const mesh::SphereFront front{cfg.front_center(k), cfg.front_radius(),
                                    cfg.front_width()};
      team.barrier();
      const auto n0 = static_cast<std::size_t>(team.read(counters, 0));
      const auto nv0 = static_cast<std::size_t>(team.read(counters, 1));
      const auto [lo, hi] = team.static_range(0, n0);

      // ---- solve (surrogate): pays per *alive* element in my slice.
      {
        auto ph = pe.phase("solve");
        std::size_t my_alive = 0;
        if (hi > lo) team.touch_read_range(alive_arr, lo, hi - lo);
        for (std::size_t t = lo; t < hi; ++t) my_alive += alive[t];
        if (hi > lo) team.touch_read_range(tets_arr, lo, hi - lo);
        pe.advance(static_cast<double>(my_alive) *
                   common::overlay_f64("mesh.solve_ns", cfg.solve_ns_per_tet));
      }
      team.barrier();  // outside the phase scope so solve imbalance is measurable

      // ---- mark: stamp front-cut edges with round 1.
      {
        auto ph = pe.phase("mark");
        table.clear(team);
        for (std::size_t t = lo; t < hi; ++t) {
          if (!alive[t]) continue;
          team.touch_read_range(tets_arr, t, 1);
          const mesh::Tet& e = tets[t];
          for (const auto& le : mesh::kTetEdges) {
            const auto va = e.v[static_cast<std::size_t>(le[0])];
            const auto vb = e.v[static_cast<std::size_t>(le[1])];
            team.touch_read_range(verts_arr, static_cast<std::size_t>(va), 1);
            team.touch_read_range(verts_arr, static_cast<std::size_t>(vb), 1);
            if (front.cuts(verts[static_cast<std::size_t>(va)],
                           verts[static_cast<std::size_t>(vb)])) {
              table.mark(team, edge_key_of(va, vb), 1);
            }
          }
          pe.advance(6.0 * kc.edge_mark_ns);
        }
        team.barrier();
        // Distinct marked edges, split by home slot — a per-PE count that is
        // a function of the key set, not of who marked first.
        pe.add_counter("mesh.marked", table.count_marked_home(team));
        team.barrier();
      }

      // ---- closure: Jacobi rounds against round-stamped marks.
      {
        auto ph = pe.phase("closure");
        // Round r sees only stamps <= r (the freeze); promotions it stages
        // carry stamp r + 1, becoming visible next round.  Convergence is a
        // deterministic reduction of staged-promotion counts — no shared
        // flag, no promote pass, nothing order-dependent.
        for (std::uint64_t round = 1;; ++round) {
          std::int64_t staged = 0;
          for (std::size_t t = lo; t < hi; ++t) {
            if (!alive[t]) continue;
            const mesh::Tet& e = tets[t];
            std::uint8_t mask = 0;
            std::array<std::uint64_t, 6> keys;
            for (int le = 0; le < 6; ++le) {
              const auto& ve = mesh::kTetEdges[static_cast<std::size_t>(le)];
              keys[static_cast<std::size_t>(le)] =
                  edge_key_of(e.v[static_cast<std::size_t>(ve[0])],
                              e.v[static_cast<std::size_t>(ve[1])]);
              if (table.is_marked_by(team, keys[static_cast<std::size_t>(le)], round)) {
                mask |= static_cast<std::uint8_t>(1u << le);
              }
            }
            pe.advance(3.0 * kc.edge_mark_ns);
            const std::uint8_t want = mesh::promote_mask(mask);
            if (want == mask) continue;
            for (int le = 0; le < 6; ++le) {
              if ((want & (1u << le)) != 0 && (mask & (1u << le)) == 0) {
                table.mark(team, keys[static_cast<std::size_t>(le)], round + 1);
                ++staged;
              }
            }
          }
          if (team.reduce_sum(staged) == 0) break;
        }
      }

      // ---- refine: count → prefix → fill, with a self-scheduled mask pass.
      {
        auto ph = pe.phase("refine");

        // Stage 1 — masks: dynamically scheduled over the phase-start
        // elements; each PE records the elements it claimed for the later
        // stages (the claim order is reproducible, see sas.hpp).
        struct Claimed {
          std::size_t t;
          std::uint8_t mask;
        };
        std::vector<Claimed> mine;
        std::int64_t my_kids = 0;
        team.parallel_for_dynamic(0, n0, 64, [&](std::size_t t) {
          if (!alive[t]) return;
          team.touch_read_range(tets_arr, t, 1);
          const mesh::Tet e = tets[t];
          std::uint8_t mask = 0;
          for (int le = 0; le < 6; ++le) {
            const auto& ve = mesh::kTetEdges[static_cast<std::size_t>(le)];
            if (table.is_marked(team, edge_key_of(e.v[static_cast<std::size_t>(ve[0])],
                                                  e.v[static_cast<std::size_t>(ve[1])]))) {
              mask |= static_cast<std::uint8_t>(1u << le);
            }
          }
          team.touch_write_range(masks_arr, t, 1);
          masks[t] = mask;
          if (mask == 0) return;
          const mesh::Pattern pat = mesh::classify(mask);
          O2K_CHECK(pat != mesh::Pattern::kIllegal, "mesh sas: closure failed");
          my_kids += mesh::child_count(pat);
          mine.push_back({t, mask});
        });  // implicit barrier

        // Stage 2 — midpoint ownership: every refining element bids for the
        // marked edges it touches with its element index; the minimum bid
        // wins, a pure function of the mesh.
        for (const Claimed& c : mine) {
          const mesh::Tet& e = tets[c.t];
          for (int le = 0; le < 6; ++le) {
            if ((c.mask & (1u << le)) == 0) continue;
            const auto& ve = mesh::kTetEdges[static_cast<std::size_t>(le)];
            table.request_mid(team,
                              edge_key_of(e.v[static_cast<std::size_t>(ve[0])],
                                          e.v[static_cast<std::size_t>(ve[1])]),
                              static_cast<std::uint64_t>(c.t));
          }
        }
        team.barrier();

        // Stage 3 — count my owned midpoints, publish per-PE counts, and
        // prefix-sum them into deterministic id ranges.
        std::int64_t my_mids = 0;
        for (const Claimed& c : mine) {
          const mesh::Tet& e = tets[c.t];
          for (int le = 0; le < 6; ++le) {
            if ((c.mask & (1u << le)) == 0) continue;
            const auto& ve = mesh::kTetEdges[static_cast<std::size_t>(le)];
            if (table.owns_mid(team,
                               edge_key_of(e.v[static_cast<std::size_t>(ve[0])],
                                           e.v[static_cast<std::size_t>(ve[1])]),
                               static_cast<std::uint64_t>(c.t))) {
              ++my_mids;
            }
          }
        }
        team.write(counts_arr, 2 * static_cast<std::size_t>(me), my_mids);
        team.write(counts_arr, 2 * static_cast<std::size_t>(me) + 1, my_kids);
        team.barrier();
        team.touch_read_range(counts_arr, 0, 2 * static_cast<std::size_t>(P));
        const auto* counts = world.data(counts_arr);
        std::int64_t vid_base = static_cast<std::int64_t>(nv0);
        std::int64_t kid_base = static_cast<std::int64_t>(n0);
        std::int64_t tot_mids = 0, tot_kids = 0;
        for (int q = 0; q < P; ++q) {
          if (q < me) {
            vid_base += counts[2 * q];
            kid_base += counts[2 * q + 1];
          }
          tot_mids += counts[2 * q];
          tot_kids += counts[2 * q + 1];
        }
        O2K_REQUIRE(nv0 + static_cast<std::size_t>(tot_mids) <= cap_verts,
                    "mesh sas: vertex capacity exceeded");
        O2K_REQUIRE(n0 + static_cast<std::size_t>(tot_kids) <= cap_tets,
                    "mesh sas: tet capacity exceeded");

        // Stage 4 — create the midpoints I own at my id range and publish.
        std::int64_t vid = vid_base;
        for (const Claimed& c : mine) {
          const mesh::Tet& e = tets[c.t];
          for (int le = 0; le < 6; ++le) {
            if ((c.mask & (1u << le)) == 0) continue;
            const auto& ve = mesh::kTetEdges[static_cast<std::size_t>(le)];
            const auto va = e.v[static_cast<std::size_t>(ve[0])];
            const auto vb = e.v[static_cast<std::size_t>(ve[1])];
            const std::uint64_t key = edge_key_of(va, vb);
            if (!table.owns_mid(team, key, static_cast<std::uint64_t>(c.t))) continue;
            team.touch_write_range(verts_arr, static_cast<std::size_t>(vid), 1);
            verts[static_cast<std::size_t>(vid)] =
                (verts[static_cast<std::size_t>(va)] + verts[static_cast<std::size_t>(vb)]) *
                0.5;
            pe.advance(kc.vertex_create_ns);
            table.put_mid(team, key, vid);
            ++vid;
          }
        }
        team.barrier();

        // Stage 5 — emit children at my precomputed element range.
        std::size_t kid = static_cast<std::size_t>(kid_base);
        std::size_t refined = 0;
        std::vector<mesh::Tet> kids;
        for (const Claimed& c : mine) {
          const mesh::Tet e = tets[c.t];
          kids.clear();
          kids.reserve(8);
          mesh::append_children(
              e, c.mask,
              [&](mesh::EdgeKey ek) {
                return static_cast<mesh::VertId>(
                    table.mid_of(team, edge_key_of(ek.a, ek.b)));
              },
              [&](mesh::VertId v) {
                team.touch_read_range(verts_arr, static_cast<std::size_t>(v), 1);
                return verts[static_cast<std::size_t>(v)];
              },
              kids);
          for (const mesh::Tet& child : kids) {
            team.touch_write_range(tets_arr, kid, 1);
            tets[kid] = child;
            team.touch_write_range(alive_arr, kid, 1);
            alive[kid] = 1;
            ++kid;
          }
          team.touch_write_range(alive_arr, c.t, 1);
          alive[c.t] = 0;
          pe.advance(kc.tet_refine_ns);
          ++refined;
        }
        pe.add_counter("mesh.refined", refined);
        team.barrier();

        // Stage 6 — publish the new totals.
        if (me == 0) {
          team.write(counters, 0, static_cast<std::int64_t>(n0) + tot_kids);
          team.write(counters, 1, static_cast<std::int64_t>(nv0) + tot_mids);
        }
      }
    }

    // ---- checks over the final shared mesh.
    team.barrier();
    const auto n_final = static_cast<std::size_t>(team.read(counters, 0));
    const auto [clo, chi] = team.static_range(0, n_final);
    double my_count = 0.0;
    double my_vol = 0.0;
    for (std::size_t t = clo; t < chi; ++t) {
      if (!alive[t]) continue;
      my_count += 1.0;
      const mesh::Tet& e = tets[t];
      my_vol += mesh::signed_volume(verts[static_cast<std::size_t>(e.v[0])],
                                    verts[static_cast<std::size_t>(e.v[1])],
                                    verts[static_cast<std::size_t>(e.v[2])],
                                    verts[static_cast<std::size_t>(e.v[3])]);
    }
    const double tets_total = team.reduce_sum(my_count);
    const double vol_total = team.reduce_sum(my_vol);
    if (pe.rank() == 0) {
      std::scoped_lock lk(checks_mu);
      checks["tets"] = tets_total;
      checks["volume"] = vol_total;
    }
  });

  AppReport out;
  out.run = std::move(rr);
  out.checks = std::move(checks);
  return out;
}

}  // namespace o2k::apps
