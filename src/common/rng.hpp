// Deterministic random number generation.
//
// All stochastic behaviour in vmstorm (boot traces, instance skew, workload
// generators) flows through Rng so that simulations are bit-reproducible
// from a seed. The generator is xoshiro256** seeded via splitmix64.
#pragma once

#include <cmath>
#include <cstdint>

namespace vmstorm {

/// splitmix64: used for seeding and for cheap stateless hashing.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix, handy for deriving per-entity seeds.
inline std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  /// Derives an independent child generator; (seed, key) pairs give
  /// reproducible per-entity streams (e.g. per-VM boot skew).
  Rng fork(std::uint64_t key) const {
    return Rng(mix64(s_[0] ^ mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL)));
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t uniform_u64(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Lemire's nearly-divisionless method, with rejection for exactness.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      std::uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform in [lo, hi] inclusive.
  std::uint64_t uniform_range(std::uint64_t lo, std::uint64_t hi) {
    return lo + uniform_u64(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  bool bernoulli(double p) { return uniform_double() < p; }

  /// Exponential with given mean.
  double exponential(double mean) {
    double u;
    do {
      u = uniform_double();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * uniform_double() - 1.0;
      v = 2.0 * uniform_double() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * f;
    have_spare_ = true;
    return u * f;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace vmstorm
