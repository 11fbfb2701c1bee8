#include "cqa/approx/random.h"

#include <cmath>

namespace cqa {

namespace {
// splitmix64 for seeding.
std::uint64_t splitmix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Xoshiro::Xoshiro(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix(&sm);
}

double Xoshiro::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::vector<double> Xoshiro::point(std::size_t dim) {
  std::vector<double> p(dim);
  for (auto& x : p) x = uniform();
  return p;
}

double Xoshiro::normal() {
  double u1 = uniform();
  double u2 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

std::vector<double> halton_point(std::size_t index, std::size_t dim) {
  static const int kPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                23, 29, 31, 37, 41, 43, 47, 53};
  std::vector<double> p(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    const int base = kPrimes[d % 16];
    double f = 1.0, r = 0.0;
    std::size_t i = index + 1;
    while (i > 0) {
      f /= base;
      r += f * static_cast<double>(i % static_cast<std::size_t>(base));
      i /= static_cast<std::size_t>(base);
    }
    p[d] = r;
  }
  return p;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::vector<double>> WitnessOperator::draw_sample(
    std::size_t count, std::size_t m) {
  std::vector<std::vector<double>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng_.point(m));
  return out;
}

}  // namespace cqa
