// FNV-1a digest over storage GET results, for soak tests that pin the
// read path's exact behaviour across refactors: every GetResult field
// plus the simulated time the result was delivered.
#pragma once

#include <cstdint>

#include "storage/object_store.hpp"
#include "util/types.hpp"

namespace evolve::soak {

class GetResultDigest {
 public:
  void add(const storage::GetResult& r, util::TimeNs completed_at) {
    mix(r.found ? 1 : 0);
    mix(static_cast<std::uint64_t>(r.size));
    mix(static_cast<std::uint64_t>(r.served_by));
    for (char c : r.tier) mix_byte(static_cast<unsigned char>(c));
    mix(r.tier.size());
    mix(r.corrupted ? 1 : 0);
    mix(r.hedged ? 1 : 0);
    mix(r.hedge_won ? 1 : 0);
    mix(r.degraded ? 1 : 0);
    mix(static_cast<std::uint64_t>(r.parity_fragments_used));
    mix(static_cast<std::uint64_t>(completed_at));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void mix_byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<unsigned char>(word >> (8 * i)));
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace evolve::soak
