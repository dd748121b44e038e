// Synchronization domains: the host-side sharding of one simulated machine.
//
// A domain is a contiguous slice of Origin2000 *nodes* (never splitting the
// two PEs that share a Hub) together with everything homed there: the PEs'
// fibers and run queue on one host worker, the directory/coherence state of
// the nodes' memory, and the SHMEM/MP structures addressed at those PEs.
// `O2K_WORKERS=N` selects N domains; the default is one per hardware
// thread, clamped to the node count.
//
// Domains advance virtual time independently between barriers.  That is
// safe — bit-identical to the single-domain run, not merely statistically
// close — because of two properties (DESIGN.md §11):
//
//   1. Every virtual-clock update is derived from *published virtual
//      values* (arrival times, release times, committed epoch state), never
//      from host scheduling; wakes only mean "re-evaluate your predicate".
//   2. The cost model gives a conservative lookahead: the cheapest
//      cross-node interaction costs MachineParams::cross_domain_lookahead_ns
//      of virtual time (one request/reply router pair), so an event a
//      domain emits can never require a peer to observe virtual state
//      "before" the model already forced it to exist.
//
// The map is a pure function of (nprocs, domains, pes_per_node) — no host
// state — and fixed for the whole run.  It only steers host placement; it
// can never perturb results.
#pragma once

#include <vector>

namespace o2k::rt {

/// Rank→domain partition by whole nodes: contiguous node slices.
class DomainMap {
 public:
  /// Trivial single-domain map (every rank in domain 0).
  DomainMap() = default;

  /// Partition `nprocs` ranks into at most `domains` slices of whole nodes
  /// (`pes_per_node` ranks per node).  Requests beyond the node count clamp
  /// down: a node is the smallest shardable unit of homed state, so a
  /// 1-node run always yields one domain regardless of the request.
  DomainMap(int nprocs, int domains, int pes_per_node);

  [[nodiscard]] int domains() const { return domains_; }
  [[nodiscard]] int nprocs() const { return nprocs_; }

  [[nodiscard]] int domain_of(int rank) const {
    return domains_ == 1 ? 0 : rank_domain_[static_cast<std::size_t>(rank)];
  }

  /// Ranks owned by domain `d`.
  [[nodiscard]] int owned(int d) const {
    return domains_ == 1 ? nprocs_ : owned_[static_cast<std::size_t>(d)];
  }

  /// Full rank→domain table (the fiber-engine affinity vector).  Empty for
  /// the trivial single-domain map.  The engine aliases its data for the
  /// whole run.
  [[nodiscard]] const std::vector<int>& affinity() const { return rank_domain_; }

 private:
  int nprocs_ = 1;
  int domains_ = 1;
  std::vector<int> rank_domain_;  ///< rank -> domain (empty when domains_ == 1)
  std::vector<int> owned_;        ///< domain -> rank count
};

}  // namespace o2k::rt
