// Scaling-path contracts for the chunked Monte-Carlo runtime: the
// compiled kernel's serial-vs-pooled bitwise identity across thread
// counts, per-worker accumulation under adversarial chunk geometries
// (fewer chunks than threads, far more chunks than threads, zero
// samples), the grain-selection policy, cancellation mid-run, and a
// wall-clock monotonicity smoke (skipped when the process can use only
// one CPU, where parallel speedup is unmeasurable).

#include <gtest/gtest.h>

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <thread>

#include "cqa/approx/monte_carlo.h"
#include "cqa/core/constraint_database.h"
#include "cqa/guard/fault.h"
#include "cqa/logic/parser.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/runtime/session.h"
#include "cqa/runtime/thread_pool.h"

namespace cqa {
namespace {

// Bit-exact double comparison: distinguishes +0.0 from -0.0 and fails
// on any representational drift EXPECT_EQ's == would forgive for NaN.
::testing::AssertionResult bits_equal(double a, double b) {
  std::uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  if (ab == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

TEST(RuntimeScaling, BitwiseIdentityAcrossThreadCounts) {
  Database db;
  VarTable vars;
  // FO+POLY core with a parameter: exercises the lowered non-linear
  // atoms and the hoisted parameter binding on the pooled path.
  auto phi =
      parse_formula("x^2 + y^2 <= a & x + y >= 0", &vars).value_or_die();
  const std::size_t x = static_cast<std::size_t>(vars.find("x"));
  const std::size_t y = static_cast<std::size_t>(vars.find("y"));
  const std::size_t a = static_cast<std::size_t>(vars.find("a"));
  const std::map<std::size_t, Rational> params{{a, Rational(9, 10)}};

  ParallelSampler sampler(&db, phi, {x, y}, /*sample_size=*/60000,
                          /*seed=*/1234, /*chunk_size=*/512);
  const double serial = sampler.estimate(params, nullptr).value_or_die();
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const double pooled = sampler.estimate(params, &pool).value_or_die();
    EXPECT_TRUE(bits_equal(serial, pooled)) << "threads=" << threads;
  }
}

TEST(RuntimeScaling, FewerChunksThanThreads) {
  // nchunks < threads: most workers find nothing to claim; the ones
  // that do must still land their hits in the right padded slots.
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  ParallelSampler sampler(&db, phi, {0, 1}, /*sample_size=*/700,
                          /*seed=*/5, /*chunk_size=*/256);  // 3 chunks
  ASSERT_EQ(sampler.num_chunks(), 3u);
  const double serial = sampler.estimate({}, nullptr).value_or_die();
  ThreadPool pool(8);
  EXPECT_TRUE(bits_equal(serial, sampler.estimate({}, &pool).value_or_die()));
}

TEST(RuntimeScaling, ManyMoreChunksThanThreads) {
  // nchunks >> threads with a tiny chunk size: stresses grain batching
  // (recommend_grain must coalesce chunks, not dispatch one at a time).
  Database db;
  VarTable vars;
  auto phi = parse_formula("x + y <= 1", &vars).value_or_die();
  ParallelSampler sampler(&db, phi, {0, 1}, /*sample_size=*/40000,
                          /*seed=*/77, /*chunk_size=*/16);  // 2500 chunks
  ASSERT_EQ(sampler.num_chunks(), 2500u);
  const double serial = sampler.estimate({}, nullptr).value_or_die();
  ThreadPool pool(4);
  EXPECT_TRUE(bits_equal(serial, sampler.estimate({}, &pool).value_or_die()));
}

TEST(RuntimeScaling, ZeroSamples) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("x <= 1/2", &vars).value_or_die();
  ParallelSampler sampler(&db, phi, {0}, /*sample_size=*/0, /*seed=*/1);
  EXPECT_EQ(sampler.num_chunks(), 0u);
  ThreadPool pool(4);
  auto part = sampler.estimate_partial({}, &pool, nullptr).value_or_die();
  EXPECT_TRUE(part.complete);
  EXPECT_EQ(part.evaluated, 0u);
  EXPECT_EQ(part.hits, 0u);
  EXPECT_EQ(part.estimate, 0.0);
}

TEST(RuntimeScaling, RecommendGrainPolicy) {
  // Cost floor dominates when items are few or cheap...
  EXPECT_EQ(ThreadPool::recommend_grain(100, 8, 32), 32u);
  // ...balance dominates when items are plentiful: ~8 tasks per worker.
  EXPECT_EQ(ThreadPool::recommend_grain(64000, 8, 32), 1000u);
  // Degenerate inputs stay sane.
  EXPECT_EQ(ThreadPool::recommend_grain(0, 8, 32), 1u);
  EXPECT_GE(ThreadPool::recommend_grain(5, 0, 1), 1u);
  EXPECT_EQ(ThreadPool::recommend_grain(7, 4, 1), 1u);
}

TEST(RuntimeScaling, CancelledTokenDropsChunksWhole) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  ParallelSampler sampler(&db, phi, {0, 1}, /*sample_size=*/50000,
                          /*seed=*/3, /*chunk_size=*/1000);
  CancelToken token;
  token.cancel();
  ThreadPool pool(4);
  auto part = sampler.estimate_partial({}, &pool, &token).value_or_die();
  // A pre-cancelled token drops every chunk; expiry is not an error.
  EXPECT_FALSE(part.complete);
  EXPECT_EQ(part.evaluated, 0u);
  EXPECT_EQ(part.requested, 50000u);
}

TEST(RuntimeScaling, PartialChunksAreWholeMultiples) {
  // Whatever survives an interrupted run must be whole chunks: evaluated
  // is always a sum of complete chunk extents, never a torn count. The
  // 40000-point sample is 78 chunks of 512 plus a final chunk of 64, so
  // s surviving chunks sum to 512*s, or to 512*(s-1) + 64 when the short
  // chunk is among them. Spurious cancellation drops a fixed number of
  // chunks however fast the kernel runs, so the partial case is
  // deterministic rather than a race against the wall clock.
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  const std::size_t chunk = 512;
  const std::size_t n = 40000;
  const std::size_t tail = n % chunk;
  ParallelSampler sampler(&db, phi, {0, 1}, n, /*seed=*/9, chunk);
  const std::size_t nchunks = sampler.num_chunks();
  ASSERT_EQ(nchunks, 79u);
  auto whole_chunks = [&](std::size_t evaluated, std::size_t survivors) {
    return evaluated == survivors * chunk ||
           (survivors > 0 && evaluated == (survivors - 1) * chunk + tail);
  };

  guard::FaultPlan plan;
  plan.seed = 17;
  plan.rate[static_cast<std::size_t>(guard::FaultSite::kSpuriousCancel)] =
      0.5;
  std::size_t dropped = 0;
  {
    guard::FaultInjector injector(plan);
    guard::ScopedFaultInjector scope(&injector);
    auto part = sampler.estimate_partial({}, nullptr, nullptr).value_or_die();
    EXPECT_EQ(injector.checks(guard::FaultSite::kSpuriousCancel), nchunks);
    dropped = injector.fired(guard::FaultSite::kSpuriousCancel);
    ASSERT_GT(dropped, 0u);
    ASSERT_LT(dropped, nchunks);
    EXPECT_FALSE(part.complete);
    EXPECT_TRUE(whole_chunks(part.evaluated, nchunks - dropped))
        << "evaluated=" << part.evaluated << " dropped=" << dropped;
  }
  {
    // Pooled: which chunks drop depends on the schedule, how many does
    // not (the plan fires on the same arrival indices).
    guard::FaultInjector injector(plan);
    guard::ScopedFaultInjector scope(&injector);
    ThreadPool pool(4);
    auto part = sampler.estimate_partial({}, &pool, nullptr).value_or_die();
    EXPECT_EQ(injector.fired(guard::FaultSite::kSpuriousCancel), dropped);
    EXPECT_FALSE(part.complete);
    EXPECT_TRUE(whole_chunks(part.evaluated, nchunks - dropped))
        << "evaluated=" << part.evaluated << " dropped=" << dropped;
  }
  {
    // A racing deadline may cut the run anywhere, or not at all; either
    // way the survivors are whole chunks.
    ThreadPool pool(4);
    CancelToken token;
    token.set_deadline_after_ms(1);
    auto part = sampler.estimate_partial({}, &pool, &token).value_or_die();
    const std::size_t rest = part.evaluated % chunk;
    EXPECT_TRUE(rest == 0 || rest == tail)
        << "a chunk was torn mid-count (evaluated=" << part.evaluated << ")";
    if (part.complete) {
      EXPECT_EQ(part.evaluated, n);
    }
  }
}

TEST(RuntimeScaling, BatchMatchesSoloRuns) {
  // The fused batch path must reproduce each member's solo estimate
  // bit for bit, including members with distinct seeds and chunk sizes.
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  ParallelSampler s1(&db, phi, {0, 1}, 20000, 42, 256);
  ParallelSampler s2(&db, phi, {0, 1}, 9000, 7, 64);
  ParallelSampler s3(&db, phi, {0, 1}, 0, 1);
  ThreadPool pool(4);
  std::vector<McBatchItem> items{{&s1, nullptr}, {&s2, nullptr},
                                 {&s3, nullptr}};
  auto batch = ParallelSampler::estimate_partial_batch(items, {}, &pool);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ParallelSampler* s = items[i].sampler;
    auto solo = s->estimate_partial({}, &pool, nullptr).value_or_die();
    ASSERT_TRUE(batch[i].is_ok()) << batch[i].status().to_string();
    EXPECT_EQ(batch[i].value().hits, solo.hits) << "item " << i;
    EXPECT_EQ(batch[i].value().evaluated, solo.evaluated);
    EXPECT_TRUE(bits_equal(batch[i].value().estimate, solo.estimate));
  }
}

TEST(RuntimeScaling, MonotonicitySmoke) {
  // Wall-clock sanity, not a benchmark: 8 pooled threads should beat
  // 0.7x the serial wall on a 1M-point workload. Only meaningful with
  // real hardware parallelism: the CPUs this process may run on, which
  // a taskset pin can cut below the machine's core count.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int usable = sched_getaffinity(0, sizeof(allowed), &allowed) == 0
                         ? CPU_COUNT(&allowed)
                         : static_cast<int>(
                               std::thread::hardware_concurrency());
  if (usable < 2) {
    GTEST_SKIP() << "single usable CPU: parallel speedup is "
                    "unmeasurable here (CI covers this on multicore)";
  }
  Database db;
  VarTable vars;
  auto phi =
      parse_formula("x^2 + y^2 <= 1 & x + y >= 0", &vars).value_or_die();
  ParallelSampler sampler(&db, phi, {0, 1}, /*sample_size=*/1000000,
                          /*seed=*/11, /*chunk_size=*/4096);
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const double serial = sampler.estimate({}, nullptr).value_or_die();
  const auto t1 = clock::now();
  ThreadPool pool(8);
  const double pooled = sampler.estimate({}, &pool).value_or_die();
  const auto t2 = clock::now();
  EXPECT_TRUE(bits_equal(serial, pooled));
  const double serial_s =
      std::chrono::duration<double>(t1 - t0).count();
  const double pooled_s =
      std::chrono::duration<double>(t2 - t1).count();
  EXPECT_LT(pooled_s, 0.7 * serial_s)
      << "8-thread run took " << pooled_s << "s vs serial " << serial_s
      << "s";
}

}  // namespace
}  // namespace cqa
