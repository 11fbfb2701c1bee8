// Seeded randomness for the approximation engines.
//
// xoshiro256++ (public-domain algorithm by Blackman & Vigna), plus Halton
// low-discrepancy sequences for the deterministic-grid comparisons, plus
// the paper's witness operator W (Abiteboul-Vianu) realized as a uniform
// sampler.

#ifndef CQA_APPROX_RANDOM_H_
#define CQA_APPROX_RANDOM_H_

#include <cstdint>
#include <vector>

namespace cqa {

/// xoshiro256++ PRNG; deterministic given a seed.
class Xoshiro {
 public:
  explicit Xoshiro(std::uint64_t seed);
  // Inline: the compiled MC kernel draws one per coordinate.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform point in [0,1)^dim.
  std::vector<double> point(std::size_t dim);
  /// Standard normal (Box-Muller).
  double normal();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Halton low-discrepancy sequence point (index >= 0) in [0,1)^dim.
std::vector<double> halton_point(std::size_t index, std::size_t dim);

/// Counter-based stream seeding: a splitmix64-style mix of (seed,
/// stream). Chunk c of a partitioned Monte-Carlo sample draws from
/// Xoshiro(stream_seed(seed, c)), so the sample depends only on (seed,
/// chunk layout) -- never on which thread evaluates which chunk.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// The witness operator W: for Theorem 4's use, W draws uniform sample
/// points from I^m. Seeded, so derandomizable in tests.
class WitnessOperator {
 public:
  explicit WitnessOperator(std::uint64_t seed) : rng_(seed) {}
  /// One witness: a uniform point of [0,1)^m.
  std::vector<double> draw(std::size_t m) { return rng_.point(m); }
  /// An M-point sample (the "M-sample" of Section 3).
  std::vector<std::vector<double>> draw_sample(std::size_t count,
                                               std::size_t m);

 private:
  Xoshiro rng_;
};

}  // namespace cqa

#endif  // CQA_APPROX_RANDOM_H_
