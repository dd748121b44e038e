// CC-SAS (shared address space) Chord DHT.
//
// The store is one shared array indexed by (node, key); a put updates every
// replica slot in place, so replication *is* the coherence traffic — no
// replica records, no repair messages.  Request records still move hop by
// hop (the routing work is the workload), through per-PE shared mailboxes:
// each PE publishes per-destination counts, a barrier commits them, writers
// place their blocks at prefix offsets, a second barrier publishes the
// payloads.  Churn repair is each new replica reading the key from a
// surviving replica's slot — a remote cache miss, not a message.
//
// Rows of the store are grouped so one PE's nodes are contiguous and (under
// block placement) home on that PE: a slot's home is its node's PE, as a
// real partitioned service would lay it out.
#include <mutex>

#include "apps/dht_detail.hpp"
#include "origin/params.hpp"
#include "sas/sas.hpp"

namespace o2k::apps {

using detail::DhtRec;

AppReport run_dht_sas(rt::Machine& machine, int nprocs, const DhtConfig& cfg) {
  O2K_REQUIRE(cfg.window >= 1 && cfg.churn_every >= 1, "dht: window and churn cadence >= 1");
  O2K_REQUIRE(cfg.replicas >= 1, "dht: need at least one replica");
  const auto kc = origin::KernelCosts::origin2000();
  const int M = detail::dht_nodes(cfg, nprocs);
  const int min_alive = detail::dht_min_alive(M, cfg.replicas);
  const std::uint32_t K = cfg.keys;
  const int npp = cfg.nodes_per_pe;
  const std::size_t mail_cap = static_cast<std::size_t>(cfg.window) + 64;

  sas::World world(machine.params(), nprocs, std::size_t{256} << 20, sas::Placement::kBlock);
  const auto val = world.alloc<std::uint64_t>(static_cast<std::size_t>(M) * K, "dht.val");
  const auto present = world.alloc<std::uint8_t>(static_cast<std::size_t>(M) * K, "dht.present");
  const auto counts =
      world.alloc<std::int64_t>(static_cast<std::size_t>(nprocs) * nprocs, "dht.counts");
  const auto mail =
      world.alloc<DhtRec>(static_cast<std::size_t>(nprocs) * mail_cap, "dht.mail");

  const dht::Traffic traffic(K, cfg.zipf_s, cfg.seed, cfg.put_percent);
  const std::vector<std::uint64_t> expected = traffic.expected_values(cfg.requests);

  std::map<std::string, double> checks;
  std::mutex checks_mu;

  auto rr = machine.run(nprocs, [&](rt::Pe& pe) {
    sas::Team team(world, pe);
    const int P = pe.size();
    const int me = pe.rank();
    std::uint64_t* vals = world.data(val);
    std::uint8_t* pres = world.data(present);
    std::int64_t* cnts = world.data(counts);
    DhtRec* mails = world.data(mail);

    // Store row of a node: my nodes contiguous (and block-homed on me).
    const auto row = [&](dht::NodeId n) {
      return static_cast<std::size_t>(n % P) * static_cast<std::size_t>(npp) +
             static_cast<std::size_t>(n) / static_cast<std::size_t>(P);
    };
    const auto slot = [&](dht::NodeId n, std::uint32_t key) { return row(n) * K + key; };

    std::vector<std::uint8_t> alive(static_cast<std::size_t>(M), 1);
    dht::Ring ring = dht::Ring::build(alive);
    std::vector<dht::NodeId> my_nodes;
    for (int n = me; n < M; n += P) my_nodes.push_back(static_cast<dht::NodeId>(n));
    std::vector<dht::Fingers> fgs(my_nodes.size());
    const auto rebuild_fingers = [&] {
      for (std::size_t i = 0; i < my_nodes.size(); ++i)
        fgs[i] = dht::Fingers::build(ring, my_nodes[i]);
    };
    const auto fingers_of = [&](dht::NodeId n) -> const dht::Fingers& {
      return fgs[static_cast<std::size_t>(n) / static_cast<std::size_t>(P)];
    };

    std::uint64_t injected = 0, served_global = 0;
    std::uint64_t next_churn = std::min(cfg.churn_every, cfg.requests);
    int churn_seq = 0;
    std::uint64_t churn_applied = 0;

    std::int64_t served_local = 0;
    std::uint64_t hops_local = 0, hot_local = 0, repair_local = 0;
    std::vector<DhtRec> inbox;
    std::vector<dht::NodeId> reps;

    {
      auto ph = pe.phase("init");
      rebuild_fingers();
      std::uint64_t stored = 0;
      detail::for_each_local_replica(
          ring, cfg.replicas, K, me, P, [&](std::uint32_t key, dht::NodeId d) {
            const std::size_t s = slot(d, key);
            team.touch_write(val.offset + s * 8, 8);
            team.touch_write(present.offset + s, 1);
            vals[s] = traffic.initial_value(key);
            pres[s] = 1;
            ++stored;
          });
      pe.advance(static_cast<double>(my_nodes.size()) * kc.dht_rebuild_node_ns +
                 static_cast<double>(stored) * kc.dht_store_ns);
      team.barrier();
    }
    pe.checkpoint("setup");  // campaign marker; clock-neutral no-op unless armed

    while (served_global < cfg.requests) {
      // ---- gen
      {
        auto ph = pe.phase("gen");
        const std::uint64_t inflight = injected - served_global;
        const std::uint64_t room = cfg.window > inflight ? cfg.window - inflight : 0;
        const std::uint64_t n_inject = std::min(room, next_churn - injected);
        std::uint64_t admitted = 0;
        for (std::uint64_t j = injected; j < injected + n_inject; ++j) {
          const dht::NodeId entry = ring.pick_alive(traffic.entry_raw(j));
          if (dht::pe_of(entry, P) != me) continue;
          const bool put = traffic.is_put(j);
          inbox.push_back(DhtRec{put ? traffic.put_delta(j) : 0, traffic.key_of(j), entry,
                                 put ? detail::kDhtPut : detail::kDhtGet, 0});
          ++admitted;
        }
        injected += n_inject;
        pe.advance(static_cast<double>(admitted) * (kc.dht_gen_ns + kc.dht_hash_ns));
      }

      // ---- serve: implicit-communication replication via shared writes.
      std::vector<std::vector<DhtRec>> outbox(static_cast<std::size_t>(P));
      {
        auto ph = pe.phase("serve");
        double ns_acc = 0.0;
        for (const DhtRec& r : inbox) {
          if (ring.owner(r.key) == r.node) {
            if (r.kind == detail::kDhtPut) {
              ring.replicas(r.key, cfg.replicas, reps);
              for (const dht::NodeId d : reps) {
                const std::size_t s = slot(d, r.key);
                team.touch_write(val.offset + s * 8, 8);
                team.touch_write(present.offset + s, 1);
                vals[s] += r.val;
                pres[s] = 1;
                ns_acc += kc.dht_store_ns;
              }
            } else {
              team.touch_read(val.offset + slot(r.node, r.key) * 8, 8);
            }
            ns_acc += kc.dht_serve_ns;
            hops_local += r.hops;
            if (traffic.is_hot(r.key)) ++hot_local;
            ++served_local;
          } else {
            const auto [next, scanned] = dht::next_hop(ring, fingers_of(r.node), r.key);
            ns_acc += kc.dht_hash_ns + static_cast<double>(scanned) * kc.dht_finger_scan_ns;
            O2K_CHECK(r.hops < 255, "dht: routing did not converge");
            outbox[static_cast<std::size_t>(dht::pe_of(next, P))].push_back(
                DhtRec{r.val, r.key, next, r.kind, static_cast<std::uint8_t>(r.hops + 1)});
          }
        }
        inbox.clear();
        pe.advance(ns_acc);
      }

      // ---- route: shared mailboxes, offsets agreed through the counts
      // matrix, visibility through barriers.
      {
        auto ph = pe.phase("route");
        for (int dst = 0; dst < P; ++dst) {
          cnts[static_cast<std::size_t>(me) * P + dst] =
              static_cast<std::int64_t>(outbox[static_cast<std::size_t>(dst)].size());
        }
        team.touch_write_range(counts, static_cast<std::size_t>(me) * P,
                               static_cast<std::size_t>(P));
        team.barrier();
        team.touch_read_range(counts, 0, static_cast<std::size_t>(P) * P);
        for (int dst = 0; dst < P; ++dst) {
          const auto& blk = outbox[static_cast<std::size_t>(dst)];
          if (blk.empty()) continue;
          std::size_t off = 0, total = 0;
          for (int src = 0; src < P; ++src) {
            const auto c =
                static_cast<std::size_t>(cnts[static_cast<std::size_t>(src) * P + dst]);
            if (src < me) off += c;
            total += c;
          }
          O2K_CHECK(total <= mail_cap, "dht sas: mailbox overflow");
          const std::size_t base = static_cast<std::size_t>(dst) * mail_cap + off;
          std::copy(blk.begin(), blk.end(), mails + base);
          team.touch_write_range(mail, base, blk.size());
        }
        team.barrier();
        std::size_t mine = 0;
        for (int src = 0; src < P; ++src)
          mine += static_cast<std::size_t>(cnts[static_cast<std::size_t>(src) * P + me]);
        if (mine > 0) {
          const std::size_t base = static_cast<std::size_t>(me) * mail_cap;
          team.touch_read_range(mail, base, mine);
          inbox.assign(mails + base, mails + base + mine);
        }
        served_global = static_cast<std::uint64_t>(team.reduce_sum(served_local));
      }

      // ---- churn: repair by reading surviving replicas (remote misses).
      if (served_global == next_churn && injected == next_churn && next_churn < cfg.requests) {
        auto ph = pe.phase("churn");
        const auto ev = dht::churn_event(alive, min_alive, cfg.seed, churn_seq);
        ++churn_seq;
        next_churn = std::min(next_churn + cfg.churn_every, cfg.requests);
        if (ev) {
          ++churn_applied;
          const dht::Ring before = ring;
          double ns_acc = 0.0;
          if (ev->fail && dht::pe_of(ev->node, P) == me) {
            const std::size_t base = row(ev->node) * K;
            team.touch_write(present.offset + base, K);
            std::fill(pres + base, pres + base + K, std::uint8_t{0});
          }
          alive[ev->node] = ev->fail ? 0 : 1;
          ring = dht::Ring::build(alive);
          rebuild_fingers();
          ns_acc += static_cast<double>(my_nodes.size()) * kc.dht_rebuild_node_ns;
          const auto xfers = dht::plan_repair(before, ring, K, cfg.replicas);
          for (const dht::RepairXfer& x : xfers) {
            if (dht::pe_of(x.dst, P) != me) continue;
            const std::size_t from = slot(x.src, x.key);
            const std::size_t to = slot(x.dst, x.key);
            team.touch_read(val.offset + from * 8, 8);
            team.touch_write(val.offset + to * 8, 8);
            team.touch_write(present.offset + to, 1);
            vals[to] = vals[from];
            pres[to] = 1;
            ns_acc += kc.dht_repair_key_ns;
            ++repair_local;
          }
          pe.advance(ns_acc);
          team.barrier();
        }
      }
    }

    // ---- check
    std::int64_t hops_total = 0, hot_total = 0, wrong_total = 0, found_total = 0;
    {
      auto ph = pe.phase("check");
      std::int64_t wrong = 0, found = 0;
      detail::for_each_local_replica(
          ring, cfg.replicas, K, me, P, [&](std::uint32_t key, dht::NodeId d) {
            const std::size_t s = slot(d, key);
            team.touch_read(present.offset + s, 1);
            if (pres[s] == 0) {
              ++wrong;
              return;
            }
            team.touch_read(val.offset + s * 8, 8);
            ++found;
            if (vals[s] != expected[key]) ++wrong;
          });
      pe.advance(static_cast<double>(found) * kc.dht_serve_ns);
      wrong_total = team.reduce_sum(wrong);
      found_total = team.reduce_sum(found);
      hops_total = team.reduce_sum(static_cast<std::int64_t>(hops_local));
      hot_total = team.reduce_sum(static_cast<std::int64_t>(hot_local));
    }

    pe.add_counter("dht.requests", static_cast<std::uint64_t>(served_local));
    pe.add_counter("dht.hops", hops_local);
    pe.add_counter("dht.hot_hits", hot_local);
    pe.add_counter("dht.repair_keys", repair_local);
    if (me == 0) pe.add_counter("dht.churn_events", churn_applied);

    if (me == 0) {
      const std::int64_t want =
          static_cast<std::int64_t>(K) * std::min(cfg.replicas, ring.n_alive());
      std::scoped_lock lk(checks_mu);
      checks["served"] = static_cast<double>(served_global);
      checks["hops"] = static_cast<double>(hops_total);
      checks["hot_hits"] = static_cast<double>(hot_total);
      checks["store_ok"] = wrong_total == 0 ? 1.0 : 0.0;
      checks["replicas_ok"] = found_total == want ? 1.0 : 0.0;
      checks["alive"] = static_cast<double>(ring.n_alive());
      checks["churn_events"] = static_cast<double>(churn_applied);
    }
  });

  AppReport out;
  out.run = std::move(rr);
  out.checks = std::move(checks);
  return out;
}

}  // namespace o2k::apps
