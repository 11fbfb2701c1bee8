// Seeded request generators for the cqa benchmark workloads.
//
// The program under test only ever sees the generated cqa::Request
// values. Every workload draws from a few request families; each family
// is at least 10% of its workload so that a latency percentile falls
// inside one family instead of on the border between two. Queries are
// FO+LIN or FO+POLY strings over fresh random rationals, and a set of
// everything generated so far guarantees distinct fingerprints within a
// run (except for served_mix's deliberate repeats).

#ifndef CQABENCH_WORKLOAD_H_
#define CQABENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cqa/runtime/request.h"

namespace cqabench {

enum class Workload { kExactCold, kMcPoly, kServedMix };

/// Parses a workload name; false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);

struct BenchRequest {
  cqa::Request request;
  /// Family label: exact.union2, exact.proj, exact.poly4, mc.2d, mc.3d
  /// or ask.
  std::string family;
  /// FO+LIN volume query with a quantifier (its planner rewrite is
  /// reused once by its own exact sweep).
  bool quantified = false;
  /// Closed-form volume of the shape, when one exists.
  std::optional<double> truth;
  /// For a served_mix repeat: index of the first occurrence; else -1.
  long repeat_of = -1;
};

/// A deterministic stream of requests for one workload and seed.
class Generator {
 public:
  Generator(Workload workload, std::uint64_t seed);

  BenchRequest next();

  /// How far back a served_mix repeat may reach, in first occurrences.
  static constexpr std::size_t kRepeatWindow = 16;

 private:
  enum class Shape {
    kUnion2, kProj2, kProj3, kPoly4, kDisc2, kBall3, kPoly2, kPoly3, kAsk,
    kRepeat,
  };

  std::uint64_t draw();
  /// Uniform integer in [lo, hi].
  long uniform(long lo, long hi);

  void refill_block();
  BenchRequest fresh(Shape shape);
  BenchRequest union2();
  BenchRequest projected(bool three_d);
  BenchRequest polytope4();
  BenchRequest quarter_disc();
  BenchRequest ball_octant();
  BenchRequest poly2();
  BenchRequest poly3();
  BenchRequest ask();

  Workload workload_;
  std::uint64_t state_;
  long emitted_ = 0;
  std::vector<Shape> block_;
  std::size_t block_pos_ = 0;
  std::unordered_set<std::string> seen_;
  /// served_mix: recent first occurrences (request, index).
  std::deque<std::pair<BenchRequest, long>> recent_;
};

/// The fixed warm-up set of a workload: independent of the seed, and
/// over variable names the generator never uses, so it can share no
/// cache entry or fingerprint with a measured request.
std::vector<BenchRequest> warmup_set(Workload workload);

/// Exact-volume requests are planned with this epsilon so the planner
/// never trades exactness for a Monte-Carlo estimate.
inline constexpr double kExactEpsilon = 1e-9;
/// Monte-Carlo budget of every FO+POLY volume request.
inline constexpr double kMcEpsilon = 0.01;
inline constexpr double kMcDelta = 0.05;

}  // namespace cqabench

#endif  // CQABENCH_WORKLOAD_H_
