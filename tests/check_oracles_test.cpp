// cqa::check oracle and runner tests: every metamorphic law holds over
// 200 seeded trials, fault injection is detected and shrunk, and the
// delta budget admits the right number of statistical misses.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "cqa/check/runner.h"

namespace cqa {
namespace {

// Runs one oracle for `trials` trials and returns its stats.
OracleStats run_one(const std::string& oracle, std::size_t trials,
                    std::uint64_t seed = 1,
                    const std::string& fault = "") {
  CheckOptions options;
  options.trials = trials;
  options.seed = seed;
  options.oracle_names = {oracle};
  options.fault_oracle = fault;
  const CheckReport report = run_checks(options);
  EXPECT_EQ(report.oracles.size(), 1u) << oracle;
  return report.oracles.empty() ? OracleStats{} : report.oracles[0];
}

class MetamorphicLaw200 : public ::testing::TestWithParam<const char*> {};

TEST_P(MetamorphicLaw200, HoldsOver200SeededTrials) {
  const OracleStats stats = run_one(GetParam(), 200);
  EXPECT_FALSE(stats.violated) << stats.first_detail;
  EXPECT_EQ(stats.failed, 0u) << stats.first_detail;
  EXPECT_EQ(stats.trials, 200u);
  // The law must actually be exercised, not skipped into vacuity.
  EXPECT_GT(stats.passed, 100u);
}

INSTANTIATE_TEST_SUITE_P(CheckOracles, MetamorphicLaw200,
                         ::testing::Values("translation_invariance",
                                           "union_additivity",
                                           "conjunction_monotonicity",
                                           "scaling",
                                           "complement_within_box"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(DifferentialOracleTest, ExactVsMcWithinDeltaBudget) {
  const OracleStats stats = run_one("exact_vs_mc", 300);
  EXPECT_TRUE(stats.statistical);
  EXPECT_FALSE(stats.violated) << stats.first_detail;
  EXPECT_LE(stats.failed, stats.allowed_failures);
}

TEST(DifferentialOracleTest, LasserreVsSweepAgrees) {
  const OracleStats stats = run_one("lasserre_vs_sweep", 200);
  EXPECT_FALSE(stats.statistical);
  EXPECT_FALSE(stats.violated) << stats.first_detail;
  EXPECT_EQ(stats.failed, 0u) << stats.first_detail;
  EXPECT_GT(stats.passed, 100u);
}

TEST(DifferentialOracleTest, QeMembershipAgrees) {
  const OracleStats stats = run_one("qe_membership", 200);
  EXPECT_FALSE(stats.violated) << stats.first_detail;
  EXPECT_EQ(stats.failed, 0u) << stats.first_detail;
  EXPECT_GT(stats.passed, 100u);
}

TEST(DifferentialOracleTest, SerialVsParallelBitIdentical) {
  const OracleStats stats = run_one("serial_vs_parallel", 100);
  EXPECT_EQ(stats.failed, 0u) << stats.first_detail;
  EXPECT_GT(stats.passed, 50u);
}

TEST(DifferentialOracleTest, CacheInvisible) {
  const OracleStats stats = run_one("cache_hot_vs_cold", 100);
  EXPECT_EQ(stats.failed, 0u) << stats.first_detail;
  EXPECT_GT(stats.passed, 50u);
}

// --- Fault injection: the harness must catch a broken engine ----------

TEST(FaultInjectionTest, DeterministicOracleDetectsAndShrinks) {
  CheckOptions options;
  options.trials = 5;
  options.seed = 1;
  options.oracle_names = {"complement_within_box"};
  options.fault_oracle = "complement_within_box";
  const CheckReport report = run_checks(options);
  ASSERT_EQ(report.oracles.size(), 1u);
  const OracleStats& stats = report.oracles[0];
  EXPECT_TRUE(stats.violated);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(stats.failed, 0u);
  ASSERT_FALSE(stats.repros.empty());
  // Shrunken repro is no larger than the original seed's formula.
  FormulaGen gen{GenOptions{}};
  for (const Repro& repro : stats.repros) {
    auto shrunk = repro_formula(repro);
    ASSERT_TRUE(shrunk.is_ok());
    const GeneratedFormula original = gen.generate(repro.seed);
    EXPECT_LE(node_count(shrunk.value().core), node_count(original.core));
  }
}

TEST(FaultInjectionTest, EveryOracleDetectsItsFault) {
  for (const Oracle* oracle : all_oracles()) {
    const std::size_t trials = 8;
    const OracleStats stats =
        run_one(oracle->name(), trials, /*seed=*/1, oracle->name());
    // Skips are legitimate (degenerate formulas) but at least one
    // non-skipped trial must exist and every such trial must fail.
    EXPECT_GT(stats.failed, 0u) << oracle->name()
                                << " never detected its injected fault";
    EXPECT_EQ(stats.passed, 0u)
        << oracle->name() << " passed despite an injected fault: "
        << stats.first_detail;
  }
}

TEST(FaultInjectionTest, FaultInOneOracleLeavesOthersGreen) {
  CheckOptions options;
  options.trials = 5;
  options.oracle_names = {"scaling", "union_additivity"};
  options.fault_oracle = "scaling";
  const CheckReport report = run_checks(options);
  ASSERT_EQ(report.oracles.size(), 2u);
  EXPECT_TRUE(report.oracles[0].violated);
  EXPECT_FALSE(report.oracles[1].violated);
}

// --- Delta budget ------------------------------------------------------

TEST(DeltaBudgetTest, BinomialBound) {
  // mean + 3 sigma + 1: N=0 -> 0; small N dominated by the +1 slack.
  EXPECT_EQ(allowed_failures(0, 0.1), 0u);
  EXPECT_GE(allowed_failures(10, 0.1), 2u);
  // N=10000, delta=0.05: mean 500, sigma ~21.8 -> ~566.
  const std::size_t big = allowed_failures(10000, 0.05);
  EXPECT_GT(big, 500u);
  EXPECT_LT(big, 650u);
  // Monotone in N.
  EXPECT_LE(allowed_failures(100, 0.1), allowed_failures(1000, 0.1));
}

TEST(DeltaBudgetTest, StatisticalViolationOnlyBeyondBudget) {
  // Injected fault fails every trial: way beyond any delta budget.
  const OracleStats stats =
      run_one("exact_vs_mc", 20, /*seed=*/1, "exact_vs_mc");
  EXPECT_TRUE(stats.statistical);
  EXPECT_TRUE(stats.violated);
  EXPECT_GT(stats.failed, stats.allowed_failures);
}

// --- Runner plumbing ---------------------------------------------------

TEST(RunnerTest, MetricsLandInRegistry) {
  CheckOptions options;
  options.trials = 10;
  options.oracle_names = {"scaling"};
  MetricsRegistry metrics;
  run_checks(options, &metrics);
  const std::uint64_t pass = metrics.counter_value("check.scaling.pass");
  const std::uint64_t skip = metrics.counter_value("check.scaling.skip");
  EXPECT_EQ(pass + skip, 10u);
  // Oracle sessions' own runtime counters were absorbed alongside.
  EXPECT_FALSE(metrics.dump().empty());
}

TEST(RunnerTest, ReproFileRoundTripsThroughReplay) {
  CheckOptions options;
  options.trials = 3;
  options.oracle_names = {"complement_within_box"};
  options.fault_oracle = "complement_within_box";
  options.repro_dir = ::testing::TempDir();
  const CheckReport report = run_checks(options);
  ASSERT_FALSE(report.oracles[0].repros.empty());
  const std::string path = options.repro_dir + "/complement_within_box-" +
                           std::to_string(report.oracles[0].repros[0].seed) +
                           ".cqa";
  auto loaded = read_repro_file(path);
  ASSERT_TRUE(loaded.is_ok()) << path;
  // Without the injected fault the repro no longer reproduces -- which
  // is itself the assertion that replay runs the real oracle.
  auto replayed = replay_repro(loaded.value());
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed.value().status, TrialStatus::kPass);
  std::remove(path.c_str());
}

TEST(RunnerTest, UnknownOracleNamesAreIgnored) {
  CheckOptions options;
  options.trials = 1;
  options.oracle_names = {"no_such_oracle"};
  const CheckReport report = run_checks(options);
  EXPECT_TRUE(report.oracles.empty());
  EXPECT_TRUE(report.ok());
}

TEST(RunnerTest, OracleStreamsArePinned) {
  // Repro files replay through these stream tags; they must never move.
  EXPECT_EQ(oracle_stream("exact_vs_mc"), 363703651609003761ull);
  EXPECT_EQ(oracle_stream("lasserre_vs_sweep"), 10504955721931488181ull);
}

TEST(RunnerTest, FindOracleCoversRegistry) {
  EXPECT_EQ(find_oracle("no_such_oracle"), nullptr);
  for (const Oracle* oracle : all_oracles()) {
    EXPECT_EQ(find_oracle(oracle->name()), oracle);
  }
}

}  // namespace
}  // namespace cqa
