#include "workload.h"

#include <cmath>
#include <numbers>
#include <utility>

namespace cqabench {

namespace {

using cqa::Request;

// Denominator of every generated rational: fixed, so the BigInt work per
// family stays homogeneous across seeds.
constexpr long kDen = 64;

std::string q(long num) {
  return std::to_string(num) + "/" + std::to_string(kDen);
}

// Monte-Carlo shapes are evaluated in doubles, so their constants can
// come from a much finer grid (2^20): a long run never exhausts it.
constexpr long kFine = 1L << 20;
constexpr long kScale = kFine / kDen;

std::string fine(long num) {
  return std::to_string(num) + "/" + std::to_string(kFine);
}

// Variable names: measured requests use the first set, the warm-up set
// the second, so the two never share a canonical form.
struct Vars {
  const char* x;
  const char* y;
  const char* z;
  const char* w;
};
constexpr Vars kMeasured{"x", "y", "z", "w"};
constexpr Vars kWarm{"u", "v", "s", "t"};

std::string unit_box(const std::vector<const char*>& vars) {
  std::string out;
  for (const char* v : vars) {
    if (!out.empty()) out += " & ";
    out += std::string("0 <= ") + v + " & " + v + " <= 1";
  }
  return out;
}

BenchRequest exact_request(std::string family, std::string query,
                           std::vector<std::string> vars, bool quantified) {
  BenchRequest b;
  b.family = std::move(family);
  b.quantified = quantified;
  b.request = Request::volume(std::move(query))
                  .vars(std::move(vars))
                  .epsilon(kExactEpsilon)
                  .build();
  return b;
}

BenchRequest mc_request(std::string family, std::string query,
                        std::vector<std::string> vars, std::uint64_t seed) {
  BenchRequest b;
  b.family = std::move(family);
  b.request = Request::volume(std::move(query))
                  .vars(std::move(vars))
                  .epsilon(kMcEpsilon)
                  .delta(kMcDelta)
                  .seed(seed)
                  .build();
  return b;
}

// The shape builders take their random numbers from `u` (uniform integer
// in [lo, hi]) so the generator and the fixed warm-up set share them.
template <typename U>
BenchRequest make_union2(U&& u, const Vars& v) {
  std::string query;
  for (int cell = 0; cell < 4; ++cell) {
    const long a = u(0, 38), w = u(12, 25), c = u(0, 38), h = u(12, 25);
    const long s = a + c + (w + h) / 2 + u(0, (w + h) / 2);
    if (!query.empty()) query += " | ";
    query += "(" + q(a) + " <= " + v.x + " & " + v.x + " <= " + q(a + w) +
             " & " + q(c) + " <= " + v.y + " & " + v.y + " <= " + q(c + h) +
             " & " + v.x + " + " + v.y + " <= " + q(s) + ")";
  }
  return exact_request("exact.union2", query, {v.x, v.y}, false);
}

template <typename U>
BenchRequest make_projected(U&& u, const Vars& v, bool three_d) {
  // Project a polytope over one more variable (the last of x,y,z,w not
  // used as an output) with Fourier-Motzkin.
  const char* e = three_d ? v.w : v.z;
  std::vector<const char*> outs = {v.x, v.y};
  if (three_d) outs.push_back(v.z);
  std::string query = std::string("E ") + e + ". (" + unit_box(outs) +
                      " & 0 <= " + e + " & " + e + " <= 1";
  const long p1 = u(1, 3), p2 = u(1, 3);
  query += " & " + std::to_string(p1) + "*" + v.x + " + " + e + " <= " +
           q(u(64, 128));
  query += " & " + std::to_string(p2) + "*" + v.y + " - " + e + " <= " +
           q(u(16, 64));
  std::string sum = std::string(v.x) + " + " + v.y;
  if (three_d) sum += std::string(" + ") + v.z;
  query += " & " + sum + " + " + e + " >= " + q(u(20, 70));
  if (three_d) {
    query += std::string(" & ") + v.z + " - " + e + " <= " + q(u(8, 48));
  }
  query += ")";
  std::vector<std::string> vars(outs.begin(), outs.end());
  return exact_request("exact.proj", query, vars, true);
}

template <typename U>
BenchRequest make_polytope4(U&& u, const Vars& v) {
  std::string query = unit_box({v.x, v.y, v.z, v.w});
  const char* names[4] = {v.x, v.y, v.z, v.w};
  for (int cut = 0; cut < 3; ++cut) {
    long total = 0;
    std::string lhs;
    for (int i = 0; i < 4; ++i) {
      const long a = u(1, 3);
      total += a;
      if (!lhs.empty()) lhs += " + ";
      lhs += std::to_string(a) + "*" + names[i];
    }
    query += " & " + lhs + " <= " + q(total * u(26, 46));
  }
  return exact_request("exact.poly4", query, {v.x, v.y, v.z, v.w}, false);
}

template <typename U>
BenchRequest make_quarter_disc(U&& u, const Vars& v, std::uint64_t seed) {
  // r^2 in [0.3, 0.95]: the quarter disc lies inside the unit square, so
  // the box atoms cut nothing and the volume is pi r^2 / 4.
  const long r2 = u(19 * kScale, 61 * kScale);
  std::string query = std::string(v.x) + "^2 + " + v.y + "^2 <= " +
                      fine(r2) + " & " + v.x + " <= 1 & " + v.y + " <= 1";
  BenchRequest b = mc_request("mc.2d", query, {v.x, v.y}, seed);
  b.truth = std::numbers::pi * (static_cast<double>(r2) / kFine) / 4.0;
  return b;
}

template <typename U>
BenchRequest make_ball_octant(U&& u, const Vars& v, std::uint64_t seed) {
  const long r2 = u(19 * kScale, 61 * kScale);
  std::string query = std::string(v.x) + "^2 + " + v.y + "^2 + " + v.z +
                      "^2 <= " + fine(r2) + " & " + v.z + " <= 1";
  BenchRequest b = mc_request("mc.3d", query, {v.x, v.y, v.z}, seed);
  const double r = std::sqrt(static_cast<double>(r2) / kFine);
  b.truth = std::numbers::pi * r * r * r / 6.0;
  return b;
}

template <typename U>
BenchRequest make_poly2(U&& u, const Vars& v, std::uint64_t seed) {
  std::string query = std::to_string(u(1, 4)) + "*" + v.x + "^2 + " +
                      std::to_string(u(1, 4)) + "*" + v.y + "^2 + " + v.x +
                      "*" + v.y + " <= " + fine(u(32 * kScale, 160 * kScale)) +
                      " & " + v.x + " <= " + fine(u(32 * kScale, 63 * kScale)) +
                      " & " + v.y + " >= " + fine(u(0, 24 * kScale));
  return mc_request("mc.2d", query, {v.x, v.y}, seed);
}

template <typename U>
BenchRequest make_poly3(U&& u, const Vars& v, std::uint64_t seed) {
  std::string query = std::string(v.x) + "^2 + " + std::to_string(u(1, 3)) +
                      "*" + v.y + "^2 + " + std::to_string(u(1, 3)) + "*" +
                      v.z + "^2 + " + v.x + "*" + v.z + " <= " +
                      fine(u(40 * kScale, 160 * kScale)) + " & " + v.x +
                      " + " + v.y + " <= " + fine(u(48 * kScale, 112 * kScale));
  return mc_request("mc.3d", query, {v.x, v.y, v.z}, seed);
}

template <typename U>
BenchRequest make_ask(U&& u, const Vars& v) {
  // Univariate FO+POLY sentences, decided by the sample-point procedure.
  const long a = u(1, 200), b = u(1, 200);
  std::string s;
  switch (u(0, 2)) {
    case 0:
      s = std::string("E ") + v.x + ". " + v.x + "^2 = " + q(a) + " & " +
          v.x + " >= " + q(b);
      break;
    case 1:
      s = std::string("A ") + v.x + ". " + v.x + "^2 + " + q(a) + "*" + v.x +
          " + " + q(b) + " > 0";
      break;
    default:
      s = std::string("E ") + v.x + ". " + v.x + "^3 - " + q(a) + "*" + v.x +
          " = " + q(b) + " & " + v.x + " <= 1";
      break;
  }
  BenchRequest r;
  r.family = "ask";
  r.request = Request::ask(s).build();
  return r;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kExactCold, Workload::kMcPoly, Workload::kServedMix}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kExactCold: return "exact_cold";
    case Workload::kMcPoly: return "mc_poly";
    case Workload::kServedMix: return "served_mix";
  }
  return "unknown";
}

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

// The seed is hashed into the starting state: SplitMix64 streams of
// nearby raw seeds would otherwise be the same stream shifted by a draw.
Generator::Generator(Workload workload, std::uint64_t seed)
    : workload_(workload),
      state_(mix64(seed ^ (static_cast<std::uint64_t>(workload) << 56) ^
                   0x6A09E667F3BCC909ULL)) {}

std::uint64_t Generator::draw() {
  return mix64(state_ += 0x9E3779B97F4A7C15ULL);
}

long Generator::uniform(long lo, long hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<long>(draw() % span);
}

BenchRequest Generator::union2() {
  return make_union2([this](long lo, long hi) { return uniform(lo, hi); },
                     kMeasured);
}
BenchRequest Generator::projected(bool three_d) {
  return make_projected([this](long lo, long hi) { return uniform(lo, hi); },
                        kMeasured, three_d);
}
BenchRequest Generator::polytope4() {
  return make_polytope4([this](long lo, long hi) { return uniform(lo, hi); },
                        kMeasured);
}
BenchRequest Generator::quarter_disc() {
  return make_quarter_disc(
      [this](long lo, long hi) { return uniform(lo, hi); }, kMeasured,
      draw());
}
BenchRequest Generator::ball_octant() {
  return make_ball_octant(
      [this](long lo, long hi) { return uniform(lo, hi); }, kMeasured,
      draw());
}
BenchRequest Generator::poly2() {
  return make_poly2([this](long lo, long hi) { return uniform(lo, hi); },
                    kMeasured, draw());
}
BenchRequest Generator::poly3() {
  return make_poly3([this](long lo, long hi) { return uniform(lo, hi); },
                    kMeasured, draw());
}
BenchRequest Generator::ask() {
  return make_ask([this](long lo, long hi) { return uniform(lo, hi); },
                  kMeasured);
}

// Each block holds every shape in its workload's proportions, shuffled:
// the mix of a run then depends on the seed only through the order inside
// a block, not through the share of each family.
void Generator::refill_block() {
  using S = Shape;
  switch (workload_) {
    case Workload::kExactCold:
      block_ = {S::kUnion2, S::kUnion2, S::kProj2, S::kProj3, S::kPoly4,
                S::kPoly4};
      break;
    case Workload::kMcPoly:
      block_ = {S::kDisc2, S::kDisc2, S::kBall3, S::kBall3, S::kPoly2,
                S::kPoly2, S::kPoly2, S::kPoly3, S::kPoly3, S::kPoly3};
      break;
    case Workload::kServedMix: {
      // 100 requests: 30 repeats, and 70 first occurrences split evenly
      // over exact unions, projections, 2-D MC, 3-D MC and ask.
      block_.assign(30, S::kRepeat);
      for (S shape : {S::kUnion2, S::kUnion2, S::kProj2, S::kProj3,
                      S::kDisc2, S::kPoly2, S::kBall3, S::kPoly3, S::kAsk,
                      S::kAsk}) {
        block_.insert(block_.end(), 7, shape);
      }
      break;
    }
  }
  for (std::size_t i = block_.size() - 1; i > 0; --i) {
    std::swap(block_[i], block_[static_cast<std::size_t>(uniform(0, i))]);
  }
  block_pos_ = 0;
}

BenchRequest Generator::fresh(Shape shape) {
  switch (shape) {
    case Shape::kUnion2: return union2();
    case Shape::kProj2: return projected(false);
    case Shape::kProj3: return projected(true);
    case Shape::kPoly4: return polytope4();
    case Shape::kDisc2: return quarter_disc();
    case Shape::kBall3: return ball_octant();
    case Shape::kPoly2: return poly2();
    case Shape::kPoly3: return poly3();
    case Shape::kAsk: return ask();
    case Shape::kRepeat: break;
  }
  return union2();
}

BenchRequest Generator::next() {
  const long index = emitted_++;
  if (block_pos_ == block_.size()) refill_block();
  Shape shape = block_[block_pos_++];
  if (shape == Shape::kRepeat) {
    if (!recent_.empty()) {
      const auto& [original, at] =
          recent_[static_cast<std::size_t>(uniform(0, recent_.size() - 1))];
      BenchRequest r = original;
      r.repeat_of = at;
      return r;
    }
    shape = Shape::kUnion2;  // nothing to repeat yet
  }
  for (;;) {
    BenchRequest r = fresh(shape);
    std::string key = r.request.query;
    for (const auto& v : r.request.output_vars) key += "|" + v;
    if (!seen_.insert(key).second) continue;
    if (workload_ == Workload::kServedMix) {
      recent_.emplace_back(r, index);
      if (recent_.size() > kRepeatWindow) recent_.pop_front();
    }
    return r;
  }
}

std::vector<BenchRequest> warmup_set(Workload workload) {
  // A fixed draw sequence (not the run's seed): set-up time must not
  // depend on which seed a run measures.
  std::uint64_t state = 0x5EEDF00DULL;
  auto u = [&state](long lo, long hi) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return lo + static_cast<long>((state >> 33) %
                                  static_cast<std::uint64_t>(hi - lo + 1));
  };
  std::vector<BenchRequest> out;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(i);
    switch (workload) {
      case Workload::kExactCold:
        out.push_back(make_union2(u, kWarm));
        out.push_back(make_projected(u, kWarm, i % 2 == 1));
        out.push_back(make_polytope4(u, kWarm));
        break;
      case Workload::kMcPoly:
        out.push_back(make_quarter_disc(u, kWarm, seed));
        out.push_back(make_ball_octant(u, kWarm, seed));
        out.push_back(make_poly2(u, kWarm, seed));
        out.push_back(make_poly3(u, kWarm, seed));
        break;
      case Workload::kServedMix:
        out.push_back(make_union2(u, kWarm));
        out.push_back(make_projected(u, kWarm, i % 2 == 1));
        out.push_back(make_poly2(u, kWarm, seed));
        out.push_back(make_ball_octant(u, kWarm, seed));
        out.push_back(make_ask(u, kWarm));
        break;
    }
  }
  return out;
}

}  // namespace cqabench
