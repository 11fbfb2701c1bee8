#include "cqa/check/runner.h"

#include <cmath>

#include "cqa/approx/random.h"
#include "cqa/check/shrinker.h"
#include "cqa/util/bincode.h"

namespace cqa {

namespace {

// The streams were first hashed from the basis 1469598103934665603; this
// salt turns bincode::fnv1a's standard basis into that one, so every
// stream keeps its value.
constexpr std::uint64_t kOracleStreamSalt =
    14695981039346656037ull ^ 1469598103934665603ull;

struct OracleHarness {
  const Oracle* oracle;
  ConstraintDatabase db;
  Session session;
  CheckContext ctx;

  OracleHarness(const Oracle* o, const CheckOptions& options)
      : oracle(o), session(&db) {
    ctx.db = &db;
    ctx.session = &session;
    ctx.epsilon = options.epsilon;
    ctx.delta = options.delta;
  }
};

}  // namespace

// FNV-1a, so each oracle's trial randomness is a distinct stream of the
// same base seed and oracles can be added without reshuffling others.
std::uint64_t oracle_stream(const std::string& name) {
  return bincode::fnv1a(name, kOracleStreamSalt);
}

std::size_t allowed_failures(std::size_t trials, double delta) {
  if (trials == 0) return 0;
  const double n = static_cast<double>(trials);
  const double mean = n * delta;
  const double sigma = std::sqrt(n * delta * (1.0 - delta));
  return static_cast<std::size_t>(std::ceil(mean + 3.0 * sigma)) + 1;
}

CheckReport run_checks(const CheckOptions& options,
                       MetricsRegistry* metrics) {
  std::vector<const Oracle*> selected;
  if (options.oracle_names.empty()) {
    selected = all_oracles();
  } else {
    for (const auto& name : options.oracle_names) {
      const Oracle* oracle = find_oracle(name);
      if (oracle != nullptr) selected.push_back(oracle);
    }
  }

  CheckReport report;
  for (const Oracle* oracle : selected) {
    OracleHarness harness(oracle, options);
    const GenOptions gen_options = oracle->tune(options.gen);
    const FormulaGen gen(gen_options);
    register_generator_vars(&harness.db.vars(), gen_options.dimension);
    const bool inject = options.fault_oracle == oracle->name();
    const std::uint64_t stream = oracle_stream(oracle->name());

    OracleStats stats;
    stats.name = oracle->name();
    stats.statistical = oracle->statistical();

    Counter* pass_counter = nullptr;
    Counter* fail_counter = nullptr;
    Counter* skip_counter = nullptr;
    Histogram* trial_hist = nullptr;
    if (metrics != nullptr) {
      const std::string prefix = "check." + stats.name + ".";
      pass_counter = metrics->counter(prefix + "pass");
      fail_counter = metrics->counter(prefix + "fail");
      skip_counter = metrics->counter(prefix + "skip");
      trial_hist = metrics->histogram(prefix + "trial");
    }

    for (std::size_t t = 0; t < options.trials; ++t) {
      const std::uint64_t formula_seed = options.seed + t;
      const GeneratedFormula g = gen.generate(formula_seed);
      const std::uint64_t trial_seed = stream_seed(formula_seed, stream);
      TrialResult result;
      {
        ScopedTimer timer(trial_hist);
        result = oracle->check(harness.ctx, g, trial_seed, inject);
      }
      ++stats.trials;
      switch (result.status) {
        case TrialStatus::kPass:
          ++stats.passed;
          if (pass_counter) pass_counter->inc();
          break;
        case TrialStatus::kSkip:
          ++stats.skipped;
          if (skip_counter) skip_counter->inc();
          break;
        case TrialStatus::kFail: {
          ++stats.failed;
          if (fail_counter) fail_counter->inc();
          if (stats.first_detail.empty()) stats.first_detail = result.detail;
          if (stats.repros.size() >= options.max_repros_per_oracle) break;
          GeneratedFormula culprit = g;
          if (options.shrink) {
            // Statistical failures are usually unlucky samples, not
            // shrinkable bugs; only deterministic failures minimize.
            if (!oracle->statistical()) {
              culprit = shrink(g, [&](const GeneratedFormula& candidate) {
                return oracle
                           ->check(harness.ctx, candidate, trial_seed,
                                   inject)
                           .status == TrialStatus::kFail;
              });
            }
          }
          Repro repro;
          repro.oracle = stats.name;
          repro.seed = formula_seed;
          repro.dimension = culprit.dimension;
          repro.formula = culprit.core_text();
          repro.detail = result.detail;
          if (!options.repro_dir.empty()) {
            const std::string path = options.repro_dir + "/" + stats.name +
                                     "-" + std::to_string(formula_seed) +
                                     ".cqa";
            write_repro_file(repro, path);  // best-effort
          }
          stats.repros.push_back(std::move(repro));
          break;
        }
      }
    }

    // Delta budget covers only trials whose estimator actually ran.
    const std::size_t effective = stats.passed + stats.failed;
    stats.allowed_failures =
        stats.statistical ? allowed_failures(effective, options.delta) : 0;
    stats.violated = stats.failed > stats.allowed_failures;

    if (metrics != nullptr) metrics->absorb(harness.session.metrics());
    report.oracles.push_back(std::move(stats));
  }
  return report;
}

Result<TrialResult> replay_repro(const Repro& repro, double epsilon,
                                 double delta) {
  const Oracle* oracle = find_oracle(repro.oracle);
  if (oracle == nullptr) {
    return Status::invalid("repro names unknown oracle: " + repro.oracle);
  }
  auto g = repro_formula(repro);
  if (!g.is_ok()) return g.status();

  ConstraintDatabase db;
  register_generator_vars(&db.vars(), repro.dimension);
  Session session(&db);
  CheckContext ctx;
  ctx.db = &db;
  ctx.session = &session;
  ctx.epsilon = epsilon;
  ctx.delta = delta;
  const std::uint64_t trial_seed =
      stream_seed(repro.seed, oracle_stream(oracle->name()));
  return oracle->check(ctx, g.value(), trial_seed, /*inject_fault=*/false);
}

}  // namespace cqa
