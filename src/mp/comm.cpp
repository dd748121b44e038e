#include "mp/comm.hpp"

#include <algorithm>
#include <set>

#include "rt/state_capture.hpp"
#include "sanitize/sanitize.hpp"

namespace o2k::mp {

namespace {

std::uint32_t phase_of(const rt::Pe& pe) {
  return pe.in_phase() ? pe.current_phase().v : UINT32_MAX;
}

}  // namespace

World::World(const origin::MachineParams& params, int nprocs)
    : params_(params), nprocs_(nprocs) {
  O2K_REQUIRE(nprocs >= 1, "mp::World needs at least one rank");
  O2K_REQUIRE(nprocs <= params.max_pes, "mp::World larger than the machine");
  a2a_ = std::vector<detail::AlltoallvSlot>(static_cast<std::size_t>(nprocs));
  a2a_lanes_.resize(static_cast<std::size_t>(nprocs));
  lb_ = std::vector<detail::LocalBox>(static_cast<std::size_t>(nprocs));
  if (auto* s = sanitize::active()) s->begin_mp_world(nprocs);
  rt::StateRegistry::instance().add(this, &World::state_capture, "mp.world");
}

namespace {

std::uint64_t message_hash(const detail::Message& m) {
  std::uint64_t h = rt::fnv1a(&m.src, sizeof m.src);
  h = rt::fnv1a(&m.tag, sizeof m.tag, h);
  const std::uint64_t n = m.payload.size();
  h = rt::fnv1a(&n, sizeof n, h);
  h = rt::fnv1a(m.payload.data(), m.payload.size(), h);
  h = rt::fnv1a(&m.arrival_ns, sizeof m.arrival_ns, h);
  h = rt::fnv1a(&m.rts_arrival_ns, sizeof m.rts_arrival_ns, h);
  return h;
}

}  // namespace

template <class Fn>
void World::for_each_queued(int rank, Fn&& fn) {
  for (const detail::Message& m : lb_[static_cast<std::size_t>(rank)].q) fn(m);
  for (int pw = 0; pw < shard_workers_; ++pw) channel(rank, pw).for_each(fn);
}

void World::state_capture(void* world, rt::StateSink& sink) {
  auto& w = *static_cast<World*>(world);
  sink.put_u64("mp.nprocs", static_cast<std::uint64_t>(w.nprocs_));
  for (int r = 0; r < w.nprocs_; ++r) {
    // Order-independent combine (sum of per-message hashes): queue order
    // reflects host enqueue interleaving, the message *set* does not.
    // Capture runs at checkpoint quiescence: every PE is parked, so the
    // lock-free queues and channels are stable and safe to walk.
    std::uint64_t combined = 0;
    std::uint64_t depth = 0;
    w.for_each_queued(r, [&](const detail::Message& m) {
      combined += message_hash(m);
      ++depth;
    });
    const std::string prefix = "mp.box." + std::to_string(r);
    sink.put_u64(prefix + ".depth", depth);
    sink.put_u64(prefix + ".digest", combined);
  }
}

World::~World() {
  rt::StateRegistry::instance().remove(this);
  auto* s = sanitize::active();
  if (s == nullptr) return;
  // The run's PEs are gone (Worlds outlive Machine::run), so the mailboxes
  // are quiescent: anything still queued was never received.
  for (int r = 0; r < nprocs_; ++r) {
    for_each_queued(r, [&](const detail::Message& m) {
      s->mp_unmatched_send(m.src, r, m.tag, m.payload.size(), m.arrival_ns);
    });
  }
  s->end_mp_world();
}

void World::bind_run(rt::Pe& pe) {
  std::scoped_lock lk(bind_mu_);
  const int workers = pe.domains();
  if (shard_workers_ == workers) return;
  // World reused by a run with a different worker count: fold each rank's
  // channels, in producer order, into its LocalBox, then re-size them.
  detail::Message m;
  for (int r = 0; r < nprocs_; ++r) {
    for (int pw = 0; pw < shard_workers_; ++pw) {
      while (channel(r, pw).pop(m)) lb_[static_cast<std::size_t>(r)].q.push_back(std::move(m));
    }
  }
  shard_workers_ = workers;
  chan_.clear();
  chan_.reserve(static_cast<std::size_t>(nprocs_) * static_cast<std::size_t>(workers));
  for (int i = 0; i < nprocs_ * workers; ++i) {
    chan_.push_back(std::make_unique<exec::SpscChannel<detail::Message>>());
  }
}

Comm::Comm(World& world, rt::Pe& pe) : world_(world), pe_(pe) {
  O2K_REQUIRE(world.size() == pe.size(),
              "mp::World size must match the Machine::run processor count");
  world.bind_run(pe);
}

void Comm::enqueue_msg(int dst, detail::Message&& m) {
  World& w = world_;
  // The owner worker of dst's queue is its domain (domain d == worker d).
  const int me_w = pe_.host_worker();
  if (me_w == pe_.domain_of(dst)) {
    // Intra-domain delivery: single host thread owns both endpoints — a
    // plain push, no lock, no atomics beyond the wake below.
    w.lb_[static_cast<std::size_t>(dst)].q.push_back(std::move(m));
  } else {
    O2K_CHECK(me_w >= 0, "mp: send from outside the worker pool");
    w.channel(dst, me_w).push(std::move(m));
  }
  pe_.wake(dst);
}

void Comm::send_bytes(std::span<const std::byte> data, int dst, int tag) {
  O2K_REQUIRE(dst >= 0 && dst < size(), "mp: invalid destination rank");
  const auto& P = world_.params();
  const std::size_t bytes = data.size();
  pe_.add_counter(c_msgs_, 1);
  pe_.add_counter(c_bytes_, bytes);
  pe_.trace_send(dst, bytes);

  detail::Message m;
  m.src = rank();
  m.tag = tag;
  m.payload.assign(data.begin(), data.end());

  if (dst == rank()) {
    pe_.advance(P.mp_o_send_ns + P.memcpy_ns(bytes));
    m.arrival_ns = pe_.now();
    enqueue_msg(dst, std::move(m));
    return;
  }

  const double entry_ns = pe_.now();
  if (bytes <= P.mp_eager_bytes) {
    pe_.advance(P.mp_o_send_ns + static_cast<double>(bytes) / P.mp_bw_bytes_per_ns);
    m.arrival_ns = pe_.now() + P.wire_ns(rank(), dst);
    // Conservative-lookahead invariant (DESIGN.md §11): a message into
    // another synchronization domain (≥1 router hop plus the send
    // overhead) can never arrive under the lookahead bound — this is what
    // lets domains advance virtual time independently between barriers.
    O2K_CHECK(pe_.domain_of(dst) == pe_.domain() ||
                  m.arrival_ns >= entry_ns + P.cross_domain_lookahead_ns(),
              "mp: cross-domain eager message under the lookahead bound");
    enqueue_msg(dst, std::move(m));
    return;
  }

  // Rendezvous: post RTS, block until the receiver drains the transfer.
  pe_.advance(P.mp_o_send_ns);
  auto rdv = std::make_shared<detail::RdvState>();
  m.rdv = rdv;
  m.rts_arrival_ns = pe_.now() + P.wire_ns(rank(), dst);
  O2K_CHECK(pe_.domain_of(dst) == pe_.domain() ||
                m.rts_arrival_ns >= entry_ns + P.cross_domain_lookahead_ns(),
            "mp: cross-domain RTS under the lookahead bound");
  enqueue_msg(dst, std::move(m));

  pe_.park_until([&] { return rdv->done.load(std::memory_order_acquire); });
  pe_.sync_at_least(rdv->release_ns);
}

void Comm::post_bytes(std::span<const std::byte> data, int dst, int tag) {
  O2K_REQUIRE(dst >= 0 && dst < size(), "mp: invalid destination rank");
  const auto& P = world_.params();
  const std::size_t bytes = data.size();
  pe_.add_counter(c_msgs_, 1);
  pe_.add_counter(c_bytes_, bytes);
  pe_.trace_send(dst, bytes);

  detail::Message m;
  m.src = rank();
  m.tag = tag;
  m.payload.assign(data.begin(), data.end());
  if (dst == rank()) {
    pe_.advance(P.mp_o_send_ns + P.memcpy_ns(bytes));
    m.arrival_ns = pe_.now();
  } else {
    // Buffered eager regardless of size: one extra local copy into the
    // send buffer, then the wire transfer proceeds without the sender.
    const double entry_ns = pe_.now();
    pe_.advance(P.mp_o_send_ns + P.memcpy_ns(bytes));
    m.arrival_ns = pe_.now() + P.wire_ns(rank(), dst) +
                   static_cast<double>(bytes) / P.mp_bw_bytes_per_ns;
    // See send_bytes: the conservative-lookahead invariant of DESIGN.md §11.
    O2K_CHECK(pe_.domain_of(dst) == pe_.domain() ||
                  m.arrival_ns >= entry_ns + P.cross_domain_lookahead_ns(),
              "mp: cross-domain posted message under the lookahead bound");
  }
  enqueue_msg(dst, std::move(m));
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag) {
  O2K_REQUIRE(src >= 0 && src < size(), "mp: invalid source rank (wildcards unsupported)");
  const auto& P = world_.params();

  // The matching predicate consumes the message as its side effect; every
  // sender wakes this rank after enqueueing (see detail::LocalBox).
  detail::Message m;
  auto* san = sanitize::active();
  int distinct_tags = 0;
  auto match_in = [&](std::deque<detail::Message>& q) {
    auto it = std::find_if(q.begin(), q.end(), [&](const detail::Message& cand) {
      return cand.src == src && (tag == kAnyTag || cand.tag == tag);
    });
    if (it == q.end()) return false;
    if (san != nullptr && tag == kAnyTag) {
      // Distinct tags queued from this source at match time (including the
      // matched one): with >= 2 the wildcard match is a FIFO accident.
      std::set<int> tags;
      for (const detail::Message& cand : q) {
        if (cand.src == src) tags.insert(cand.tag);
      }
      distinct_tags = static_cast<int>(tags.size());
    }
    m = std::move(*it);
    q.erase(it);
    return true;
  };
  // This fiber's host worker is the sole consumer of lb_[rank] and of
  // every channel(rank, *) — no locks.  Draining channels in fixed
  // producer order before each scan keeps the scan order a pure function
  // of message arrival order: a given src's messages always ride exactly
  // one route (direct push or its worker's channel), so per-src FIFO — all
  // the matching semantics depend on — holds.
  auto& q = world_.lb_[static_cast<std::size_t>(rank())].q;
  pe_.park_until([&] {
    detail::Message in;
    for (int pw = 0; pw < world_.shard_workers_; ++pw) {
      auto& ch = world_.channel(rank(), pw);
      while (ch.pop(in)) q.push_back(std::move(in));
    }
    return match_in(q);
  });

  const std::size_t bytes = m.payload.size();
  if (!m.rdv) {
    pe_.sync_at_least(m.arrival_ns);
    pe_.advance(P.mp_o_recv_ns);
  } else {
    // Rendezvous: transfer begins once both the RTS has arrived and the
    // receiver has posted; the handshake and the bulk transfer follow.
    const double start =
        std::max(pe_.now() + P.mp_o_recv_ns, m.rts_arrival_ns) + P.mp_rendezvous_extra_ns;
    const double done = start + static_cast<double>(bytes) / P.mp_bw_bytes_per_ns +
                        P.wire_ns(m.src, rank());
    pe_.sync_at_least(done);
    m.rdv->release_ns = done;
    m.rdv->done.store(true, std::memory_order_release);
    pe_.wake(m.src);
  }
  pe_.add_counter(c_recv_msgs_, 1);
  pe_.trace_recv(m.src, bytes);
  if (san != nullptr) {
    san->mp_recv(rank(), m.src, m.tag, tag == kAnyTag, distinct_tags, pe_.now(),
                 phase_of(pe_));
  }
  return std::move(m.payload);
}

std::uint64_t Comm::register_irecv(int src, int tag) {
  if (auto* s = sanitize::active()) return s->mp_register_irecv(rank(), src, tag);
  return 0;
}

void Comm::wait(Request& r) {
  if (r.kind_ != Request::Kind::kRecv) return;
  auto raw = recv_bytes(r.src_, r.tag_);
  O2K_REQUIRE(raw.size() == r.out_bytes_, "mp: irecv buffer size mismatch");
  std::memcpy(r.out_, raw.data(), raw.size());
  r.kind_ = Request::Kind::kDone;
  if (r.sid_ != 0) {
    if (auto* s = sanitize::active()) s->mp_wait_done(r.sid_);
  }
}

void Comm::wait_all(std::span<Request> rs) {
  for (auto& r : rs) wait(r);
}

void Comm::barrier() {
  const int p = size();
  const int me = rank();
  if (p == 1) return;
  const int tag = next_coll_tag();
  // Dissemination barrier: log2(P) rounds of zero-byte messages; the cost
  // emerges from the per-message overheads of the model.
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (me + k) % p;
    const int src = (me - k + p) % p;
    post_bytes({}, dst, tag);
    (void)recv_bytes(src, tag);
  }
  // A dissemination barrier synchronises virtual time with point-to-point
  // messages and never reaches Pe::barrier, the machine-level host
  // rendezvous; the collective fence gives it one (see allreduce_sum).
  // Placing it after the last round is safe: every rank has entered the
  // barrier by now and all release messages are already posted, so no rank
  // still draining them depends on a parked PE running further.
  pe_.collective_fence();
}

// ---- alltoallv ------------------------------------------------------------
//
// Step s of the pairwise exchange pairs rank r's send with rank (r+s)'s
// receive and nothing else: one tag serves the whole collective, but r
// sends to r+s at step s only, so per-source FIFO matching can pair that
// message with no other receive.  Step s is therefore a closed system whose
// inputs are the clocks after step s-1, and a step-major evaluation is
// exact.  Within a step, rank r < P-s sends first (r < r+s without wrap);
// the others ("recv-first") receive first.  A recv-first rank's first
// operation waits on its source's send, and that source, when it is
// recv-first too, has a higher rank (r-s+P > r).  A send-first rank's
// first operation, when rendezvous, waits on its receiver's posted
// receive, and that receiver, when send-first too, has a higher rank (r+s).
// So one descending pass settles every rank's clock after its first
// operation, and a second pass, reading only first-pass values, settles
// the second.  Every formula below is the arithmetic of send_bytes and
// recv_bytes, term for term, so the clocks are bit-identical to the
// message-driven exchange.

void Comm::a2a_evaluate() {
  World& w = world_;
  const auto& P = w.params();
  const int p = w.nprocs_;
  const auto lane = [&](int r) -> detail::AlltoallvLane& {
    return w.a2a_lanes_[static_cast<std::size_t>(r)];
  };
  for (int r = 0; r < p; ++r) {
    lane(r).c2 = w.a2a_[static_cast<std::size_t>(r)].entry_ns;
    lane(r).domain = pe_.domain_of(r);
  }
  // Rendezvous transfer on u's edge: receiver posted at `rho`, RTS arrived at `rts`.
  const auto rdv_done = [&](double rho, double rts, const detail::AlltoallvLane& e) {
    const double start = std::max(rho + P.mp_o_recv_ns, rts) + P.mp_rendezvous_extra_ns;
    return start + static_cast<double>(e.bytes) / P.mp_bw_bytes_per_ns + e.wire_ns;
  };
  // Sender u's clock after its send: called at `sigma`, the receiver posts at `rho`.
  const auto send_done = [&](double sigma, double rho, int u) {
    const detail::AlltoallvLane& e = lane(u);
    if (e.bytes <= P.mp_eager_bytes) {
      const double done =
          sigma + (P.mp_o_send_ns + static_cast<double>(e.bytes) / P.mp_bw_bytes_per_ns);
      // The conservative-lookahead invariant of DESIGN.md §11 (see send_bytes).
      O2K_CHECK(!e.cross || done + e.wire_ns >= sigma + P.cross_domain_lookahead_ns(),
                "mp: cross-domain eager message under the lookahead bound");
      return done;
    }
    const double post = sigma + P.mp_o_send_ns;
    const double rts = post + e.wire_ns;
    O2K_CHECK(!e.cross || rts >= sigma + P.cross_domain_lookahead_ns(),
              "mp: cross-domain RTS under the lookahead bound");
    return std::max(post, rdv_done(rho, rts, e));
  };
  // The receiver's clock after receiving u's block, under the same timing.
  const auto recv_done = [&](double sigma, double rho, int u) {
    const detail::AlltoallvLane& e = lane(u);
    if (e.bytes <= P.mp_eager_bytes) {
      const double arrival =
          sigma + (P.mp_o_send_ns + static_cast<double>(e.bytes) / P.mp_bw_bytes_per_ns) +
          e.wire_ns;
      return std::max(rho, arrival) + P.mp_o_recv_ns;
    }
    const double rts = sigma + P.mp_o_send_ns + e.wire_ns;
    return std::max(rho, rdv_done(rho, rts, e));
  };

  const auto wrap = [p](int r) { return r < 0 ? r + p : r >= p ? r - p : r; };
  for (int s = 1; s < p; ++s) {
    const int lo = p - s;  // ranks below lo send first
    for (int u = 0; u < p; ++u) {  // the step's edges, u -> u + s
      detail::AlltoallvLane& e = lane(u);
      const int v = wrap(u + s);
      const detail::AlltoallvSlot& sl = w.a2a_[static_cast<std::size_t>(u)];
      e.c0 = e.c2;
      e.bytes = sl.block_bytes(sl.bufs, v);
      e.wire_ns = P.wire_ns(u, v);
      e.cross = e.domain != lane(v).domain;
    }
    // Clock at which u calls send / v calls recv in this step.
    const auto sigma = [&](int u) { return u < lo ? lane(u).c0 : lane(u).c1; };
    const auto rho = [&](int v) { return v < lo ? lane(v).c1 : lane(v).c0; };
    for (int r = p - 1; r >= 0; --r) {
      detail::AlltoallvLane& l = lane(r);
      if (r < lo) {
        l.c1 = send_done(l.c0, rho(r + s), r);
      } else {
        const int src = wrap(r - s);
        l.c1 = recv_done(sigma(src), l.c0, src);
      }
    }
    for (int r = 0; r < p; ++r) {
      detail::AlltoallvLane& l = lane(r);
      if (r < lo) {
        const int src = wrap(r - s);
        l.c2 = recv_done(sigma(src), l.c1, src);
      } else {
        l.c2 = send_done(l.c1, rho(r + s - p), r);
      }
      double* t = w.a2a_[static_cast<std::size_t>(r)].times.data() + 2 * (s - 1);
      t[0] = l.c1;
      t[1] = l.c2;
    }
  }
}

void Comm::a2a_enter(const void* bufs, std::size_t (*block_bytes)(const void* bufs, int dst)) {
  const int p = size();
  const int me = rank();
  const int tag = next_coll_tag();
  detail::AlltoallvSlot& mine = world_.a2a_[static_cast<std::size_t>(me)];
  mine.entry_ns = pe_.now();
  mine.bufs = bufs;
  mine.block_bytes = block_bytes;
  mine.times.resize(2 * static_cast<std::size_t>(p - 1));
  pe_.rendezvous([this] { a2a_evaluate(); });

  // Replay: the same counters, trace events and sanitizer calls as
  // send_bytes / recv_bytes, in the same order and at the same clocks.
  auto* san = sanitize::active();
  auto send_events = [&](int dst) {
    const std::size_t bytes = block_bytes(bufs, dst);
    pe_.add_counter(c_msgs_, 1);
    pe_.add_counter(c_bytes_, bytes);
    pe_.trace_send(dst, bytes);
  };
  auto recv_events = [&](int src) {
    const detail::AlltoallvSlot& theirs = world_.a2a_[static_cast<std::size_t>(src)];
    pe_.add_counter(c_recv_msgs_, 1);
    pe_.trace_recv(src, theirs.block_bytes(theirs.bufs, me));
    if (san != nullptr) san->mp_recv(me, src, tag, false, 0, pe_.now(), phase_of(pe_));
  };
  for (int s = 1; s < p; ++s) {
    const int dst = (me + s) % p;
    const int src = (me - s + p) % p;
    const double first = mine.times[2 * static_cast<std::size_t>(s - 1)];
    const double second = mine.times[2 * static_cast<std::size_t>(s - 1) + 1];
    if (me < dst) {
      send_events(dst);
      pe_.sync_at_least(first);
      pe_.sync_at_least(second);
      recv_events(src);
    } else {
      pe_.sync_at_least(first);
      recv_events(src);
      send_events(dst);
      pe_.sync_at_least(second);
    }
  }
}

void Comm::bcast_bytes(std::span<std::byte> data, int root, int tag) {
  O2K_REQUIRE(root >= 0 && root < size(), "mp: invalid bcast root");
  const int p = size();
  if (p == 1) return;
  const int rel = (rank() - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const int parent = ((rel & ~mask) + root) % p;
      auto raw = recv_bytes(parent, tag);
      O2K_REQUIRE(raw.size() == data.size(), "mp: bcast size mismatch across ranks");
      std::memcpy(data.data(), raw.data(), raw.size());
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const int dst = ((rel + mask) + root) % p;
      send_bytes(std::span<const std::byte>(data.data(), data.size()), dst, tag);
    }
    mask >>= 1;
  }
}

}  // namespace o2k::mp
