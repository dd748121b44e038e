#include "rt/domain.hpp"

#include "common/check.hpp"

namespace o2k::rt {

DomainMap::DomainMap(int nprocs, int domains, int pes_per_node)
    : nprocs_(nprocs) {
  O2K_REQUIRE(nprocs >= 1, "DomainMap needs at least one rank");
  O2K_REQUIRE(domains >= 1, "DomainMap needs at least one domain");
  O2K_REQUIRE(pes_per_node >= 1, "DomainMap needs at least one PE per node");

  const int nodes = (nprocs + pes_per_node - 1) / pes_per_node;
  domains_ = domains < nodes ? domains : nodes;
  if (domains_ == 1) return;

  // Block-distribute whole nodes over domains (same arithmetic as the
  // static loop partitioners): domain d owns nodes [d*base + min(d, rem),
  // ...), the first `rem` domains owning one extra node.
  rank_domain_.resize(static_cast<std::size_t>(nprocs));
  owned_.assign(static_cast<std::size_t>(domains_), 0);
  const int base = nodes / domains_;
  const int rem = nodes % domains_;
  int d = 0;
  int next_boundary = base + (rem > 0 ? 1 : 0);  // first node of domain d+1
  for (int r = 0; r < nprocs; ++r) {
    const int node = r / pes_per_node;
    while (node >= next_boundary) {
      ++d;
      next_boundary += base + (d < rem ? 1 : 0);
    }
    rank_domain_[static_cast<std::size_t>(r)] = d;
    ++owned_[static_cast<std::size_t>(d)];
  }
}

}  // namespace o2k::rt
