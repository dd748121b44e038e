// Deterministic DHT client-traffic generator with Zipf-skewed popularity.
//
// The "millions of clients" of the target scenario are modelled as a
// stateless request stream: request j's key, operation, payload and entry
// node are pure hashes of (seed, j), so any PE can generate (or verify) any
// request without coordination, and the stream is identical across the
// three model bindings and across host worker counts.
//
// Popularity: key ranks follow a Zipf(s) law over K keys, sampled by
// inverse-CDF binary search; the rank→key mapping is a fixed bijective
// permutation so that popular keys land uniformly on the hash ring (a hot
// key is hot because clients want it, not because of where it lives).
// The top 1% of ranks form the "hot set" whose serve counts the apps
// report (`dht.hot_hits`).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "dht/chord.hpp"

namespace o2k::dht {

class Traffic {
 public:
  /// `put_percent` of requests are puts (the rest are gets).
  Traffic(std::uint32_t keys, double zipf_s, std::uint64_t seed, int put_percent);

  [[nodiscard]] std::uint32_t keys() const { return keys_; }
  [[nodiscard]] std::uint32_t hot_keys() const { return hot_keys_; }

  /// Key requested by request j (Zipf-ranked, then permuted onto [0, K)).
  [[nodiscard]] std::uint32_t key_of(std::uint64_t j) const {
    return permute(rank_of(j));
  }
  [[nodiscard]] bool is_put(std::uint64_t j) const {
    return static_cast<int>(mix64(seed_ ^ (j * 0xd1b5'4a32'd192'ed03ULL)) % 100) < put_percent_;
  }
  /// Raw draw for the entry-node pick (fed to Ring::pick_alive so the
  /// modulus tracks the alive count at injection time).
  [[nodiscard]] std::uint64_t entry_raw(std::uint64_t j) const {
    return mix64(seed_ + 0x9e6c'63d0'ca1f'3e11ULL + j);
  }
  /// Value delta carried by a put (accumulated into the store with +, so
  /// the final store state is independent of put arrival order).
  [[nodiscard]] std::uint64_t put_delta(std::uint64_t j) const {
    return mix64(seed_ ^ 0x2545'f491'4f6c'dd1dULL ^ j) | 1u;
  }
  /// Initial (pre-traffic) value of a key.
  [[nodiscard]] std::uint64_t initial_value(std::uint32_t key) const {
    return mix64(seed_ + 0x4528'21e6'38d0'1377ULL + key);
  }
  [[nodiscard]] bool is_hot(std::uint32_t key) const { return hot_[key] != 0; }

  /// Expected final owner value of every key after requests [0, n) have all
  /// been served — the serial reference the model runs are checked against.
  [[nodiscard]] std::vector<std::uint64_t> expected_values(std::uint64_t n) const;

  [[nodiscard]] std::uint32_t rank_of(std::uint64_t j) const;
  [[nodiscard]] std::uint32_t permute(std::uint32_t rank) const {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(rank) * perm_a_ + perm_b_) % keys_);
  }

 private:
  std::uint32_t keys_;
  std::uint32_t hot_keys_;
  std::uint64_t seed_;
  int put_percent_;
  std::uint64_t perm_a_;  ///< odd multiplier coprime with keys_
  std::uint64_t perm_b_;
  std::vector<double> cdf_;      ///< cdf_[r] = P(rank <= r)
  std::vector<std::uint8_t> hot_;  ///< hot flag by *key* (permuted)
};

}  // namespace o2k::dht
