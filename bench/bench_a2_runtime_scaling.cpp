// A2 -- cqa::runtime scaling: Monte-Carlo volume throughput at 1/2/4/8
// pool threads on the E3 disk workload, and the rewrite/volume memo-cache
// speedup on repeated identical calls.
//
// The headline table times each configuration once, checks the bitwise
// serial/parallel invariant, and writes BENCH_runtime.json next to the
// working directory; the google-benchmark section re-measures the same
// paths with its usual statistics.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cqa/approx/compiled_membership.h"
#include "cqa/approx/monte_carlo.h"
#include "cqa/approx/random.h"
#include "cqa/core/constraint_database.h"
#include "cqa/core/query_engine.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/runtime/session.h"
#include "cqa/vc/sample_bounds.h"

namespace {

using namespace cqa;

constexpr std::size_t kSampleSize = 200000;
constexpr std::size_t kChunkSize = 2048;
constexpr const char* kMcFormula = "x^2 + y^2 <= a";
// A QE-heavy FO+LIN query: two quantifier eliminations over a region.
constexpr const char* kQeQuery = "E u. E v. Zone(x, u) & Zone(v, y)";

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void add_zone(ConstraintDatabase* db) {
  Status st = db->add_region(
      "Zone", {"s", "t"},
      "0 <= s & s <= 1 & 0 <= t & t <= 1 & s + t <= 3/2");
  CQA_CHECK(st.is_ok());
}

struct KernelRow {
  std::string formula;
  double interp_sec = 0.0;
  double kernel_sec = 0.0;

  std::string json() const {
    return "{\"formula\": \"" + formula + "\", \"interpreter_seconds\": " +
           std::to_string(interp_sec) + ", \"compiled_seconds\": " +
           std::to_string(kernel_sec) + ", \"kernel_speedup\": " +
           std::to_string(interp_sec / kernel_sec) + "}";
  }
};

// Times the interpreter (mc_count_hits) and the compiled kernel on the
// same points and checks their hit counts agree exactly.
KernelRow kernel_row(ConstraintDatabase* db, const char* formula,
                     const std::vector<std::size_t>& element_vars,
                     const std::map<std::size_t, Rational>& params,
                     const std::vector<std::vector<double>>& pts) {
  KernelRow row;
  row.formula = formula;
  auto inlined =
      db->db().inline_predicates(db->parse(formula).value_or_die())
          .value_or_die();
  double t0 = now_seconds();
  const std::size_t interp_hits =
      mc_count_hits(inlined, element_vars, params, pts.data(), pts.size())
          .value_or_die();
  row.interp_sec = now_seconds() - t0;
  auto compiled_r = CompiledMembership::compile(inlined, element_vars);
  CQA_CHECK(compiled_r.is_ok());
  const auto compiled = std::move(compiled_r).take();
  auto binding = compiled.bind(params).value_or_die();
  t0 = now_seconds();
  const std::size_t kernel_hits =
      compiled.count_hits(binding, pts.data(), pts.size()).value_or_die();
  row.kernel_sec = now_seconds() - t0;
  CQA_CHECK(interp_hits == kernel_hits);  // the differential contract
  std::printf("  %s\n    interpreter  %.4fs  (%.0f points/sec)\n"
              "    compiled     %.4fs  (%.0f points/sec, %.1fx)\n",
              formula, row.interp_sec, pts.size() / row.interp_sec,
              row.kernel_sec, pts.size() / row.kernel_sec,
              row.interp_sec / row.kernel_sec);
  return row;
}

void print_table() {
  cqa_bench::header(
      "A2: runtime scaling -- work-stealing MC sampling + memo-cache",
      "parallel estimate must be bitwise identical to serial; throughput "
      "should scale with pool threads (hardware permitting); repeated "
      "rewrites should be cache hits");

  ConstraintDatabase db;
  auto phi = db.parse(kMcFormula).value_or_die();
  const std::size_t x = db.var("x"), y = db.var("y"), a = db.var("a");
  ParallelSampler sampler(&db.db(), phi, {x, y}, kSampleSize, 31337,
                          kChunkSize);
  const std::map<std::size_t, Rational> params = {{a, Rational(9, 10)}};

  // Kernel ablation: the eval_qf_double tree walk vs the compiled batch
  // kernel on ONE materialized sample -- the serially-measurable half of
  // the speedup story (thread scaling is the other half, below). One
  // multi-atom FO+LIN row with a bound parameter, one FO+POLY row on a
  // quadratic cell with a cross term: both lower into the same table.
  WitnessOperator witness(31337);
  const auto kernel_pts = witness.draw_sample(kSampleSize, 2);
  std::printf("membership kernel, M=%zu points:\n", kSampleSize);
  const KernelRow lin_row = kernel_row(
      &db, "x + y <= 1 & x - y <= 1/2 & 2*x + 3*y >= a & x <= 3/4",
      {x, y}, {{a, Rational(-1, 4)}}, kernel_pts);
  const KernelRow poly_row =
      kernel_row(&db, "x^2 + y^2 + x*y <= 4/5", {x, y}, {}, kernel_pts);
  std::printf("\n");

  std::printf("MC throughput, M=%zu points (disk family, a=0.9):\n",
              kSampleSize);
  std::printf("%-9s %-12s %-14s %-10s %-9s\n", "threads", "seconds",
              "points/sec", "estimate", "bitwise");
  double t0 = now_seconds();
  const double serial = sampler.estimate(params, nullptr).value_or_die();
  const double serial_sec = now_seconds() - t0;
  std::printf("%-9s %-12.4f %-14.0f %-10.6f %-9s\n", "serial", serial_sec,
              kSampleSize / serial_sec, serial, "-");

  const unsigned hw = std::thread::hardware_concurrency();
  std::string json =
      "{\n  \"sample_size\": " + std::to_string(kSampleSize) +
      ",\n  \"hardware_concurrency\": " + std::to_string(hw) +
      ",\n  \"kernel\": " + lin_row.json() +
      ",\n  \"kernel_poly\": " + poly_row.json() +
      ",\n  \"serial_seconds\": " + std::to_string(serial_sec) +
      ",\n  \"serial_samples_per_sec\": " +
      std::to_string(kSampleSize / serial_sec) + ",\n  \"threads\": [\n";
  bool first = true;
  double best_speedup = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    t0 = now_seconds();
    const double est = sampler.estimate(params, &pool).value_or_die();
    const double sec = now_seconds() - t0;
    const bool bitwise = est == serial;
    best_speedup = std::max(best_speedup, serial_sec / sec);
    std::printf("%-9zu %-12.4f %-14.0f %-10.6f %-9s\n", threads, sec,
                kSampleSize / sec, est, bitwise ? "yes" : "NO");
    json += std::string(first ? "" : ",\n") + "    {\"threads\": " +
            std::to_string(threads) + ", \"seconds\": " +
            std::to_string(sec) + ", \"samples_per_sec\": " +
            std::to_string(kSampleSize / sec) + ", \"speedup\": " +
            std::to_string(serial_sec / sec) + ", \"bitwise_identical\": " +
            (bitwise ? "true" : "false") + "}";
    first = false;
  }
  // Thread-scaling floor, adapted to the machine: a 1-core runner
  // cannot show parallel speedup, so the floor tracks 0.75x the core
  // count and caps at the CI contract's 3x.
  const double floor =
      std::min(3.0, 0.75 * std::max(1u, hw));
  json += "\n  ],\n  \"max_thread_speedup\": " +
          std::to_string(best_speedup) +
          ",\n  \"speedup_floor\": " + std::to_string(floor) +
          ",\n  \"meets_floor\": " +
          (best_speedup >= floor ? "true" : "false") + ",\n";

  // Memo-cache: cold rewrite each call vs Session (hit after warmup).
  ConstraintDatabase qdb;
  add_zone(&qdb);
  QueryEngine cold(&qdb);
  const int reps = 50;
  t0 = now_seconds();
  for (int i = 0; i < reps; ++i) {
    cold.rewrite(kQeQuery).value_or_die();
  }
  const double cold_sec = (now_seconds() - t0) / reps;

  Session session(&qdb, SessionOptions{.threads = 1});
  session.run(Request::rewrite(kQeQuery)).value_or_die();  // warm the cache
  t0 = now_seconds();
  for (int i = 0; i < reps; ++i) {
    session.run(Request::rewrite(kQeQuery)).value_or_die();
  }
  const double warm_sec = (now_seconds() - t0) / reps;
  const auto stats = session.cache().rewrite_stats();
  std::printf("\nrewrite memo-cache (QE query, %d reps):\n", reps);
  std::printf("  cold      %.6fs/call\n  cached    %.6fs/call  "
              "(speedup %.1fx, hits %llu, misses %llu)\n",
              cold_sec, warm_sec, cold_sec / warm_sec,
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));

  json += "  \"rewrite_cold_seconds\": " + std::to_string(cold_sec) +
          ",\n  \"rewrite_cached_seconds\": " + std::to_string(warm_sec) +
          ",\n  \"rewrite_cache_speedup\": " +
          std::to_string(cold_sec / warm_sec) + "\n}\n";
  if (FILE* out = std::fopen("BENCH_runtime.json", "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("  wrote BENCH_runtime.json\n");
  }
}

void BM_McSerial(benchmark::State& state) {
  ConstraintDatabase db;
  auto phi = db.parse(kMcFormula).value_or_die();
  const std::size_t x = db.var("x"), y = db.var("y"), a = db.var("a");
  ParallelSampler sampler(&db.db(), phi, {x, y}, 50000, 31337, kChunkSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.estimate({{a, Rational(9, 10)}}, nullptr).value_or_die());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          50000);
}
BENCHMARK(BM_McSerial);

void BM_McPooled(benchmark::State& state) {
  ConstraintDatabase db;
  auto phi = db.parse(kMcFormula).value_or_die();
  const std::size_t x = db.var("x"), y = db.var("y"), a = db.var("a");
  ParallelSampler sampler(&db.db(), phi, {x, y}, 50000, 31337, kChunkSize);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.estimate({{a, Rational(9, 10)}}, &pool).value_or_die());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          50000);
}
BENCHMARK(BM_McPooled)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RewriteCold(benchmark::State& state) {
  ConstraintDatabase db;
  add_zone(&db);
  QueryEngine engine(&db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.rewrite(kQeQuery).value_or_die());
  }
}
BENCHMARK(BM_RewriteCold);

void BM_RewriteCached(benchmark::State& state) {
  ConstraintDatabase db;
  add_zone(&db);
  Session session(&db, SessionOptions{.threads = 1});
  session.run(Request::rewrite(kQeQuery)).value_or_die();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.run(Request::rewrite(kQeQuery)).value_or_die());
  }
}
BENCHMARK(BM_RewriteCached);

void BM_ExactVolumeCached(benchmark::State& state) {
  ConstraintDatabase db;
  add_zone(&db);
  Session session(&db, SessionOptions{.threads = 1});
  session.run(Request::volume("Zone(x, y)").vars({"x", "y"})).value_or_die();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.run(Request::volume("Zone(x, y)").vars({"x", "y"}))
            .value_or_die());
  }
}
BENCHMARK(BM_ExactVolumeCached);

}  // namespace

CQA_BENCH_MAIN(print_table)
