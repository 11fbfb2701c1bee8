// The check runner: drives N seeded trials per oracle, accounts
// statistical failures against the Theorem-4 delta budget, shrinks
// deterministic failures, and writes replayable .cqa repro files.
//
// Accounting. Deterministic oracles must never fail: one failing trial
// marks the oracle violated. Statistical oracles (Monte-Carlo bar
// coverage) are allowed to fail with probability <= delta per trial, so
// over N trials the runner admits up to
//     allowed(N) = ceil(N*delta + 3*sqrt(N*delta*(1-delta))) + 1
// observed misses (mean + 3 sigma of the Binomial(N, delta) count,
// plus one so a single unlucky miss in a tiny run never trips); more
// than that and the estimator's stated confidence is wrong -- a bug.
//
// Determinism. Trial t of oracle o generates its formula from seed
// base_seed + t and runs with trial_seed stream_seed(base_seed + t,
// hash(o)), so runs are replayable per-oracle and adding an oracle does
// not shift any other oracle's formulas.

#ifndef CQA_CHECK_RUNNER_H_
#define CQA_CHECK_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cqa/check/generator.h"
#include "cqa/check/oracles.h"
#include "cqa/check/repro.h"
#include "cqa/check/shrinker.h"
#include "cqa/runtime/metrics.h"

namespace cqa {

struct CheckOptions {
  std::size_t trials = 200;     // per oracle
  std::uint64_t seed = 1;       // base seed (trial t uses seed + t)
  /// Oracle names to run; empty = all registered oracles.
  std::vector<std::string> oracle_names;
  /// Test-only fault hook: inject a deliberate fault into this oracle's
  /// comparison on every trial, to prove the harness detects, shrinks,
  /// and reports. Empty = no injection.
  std::string fault_oracle;
  /// Directory for .cqa repro files of failing trials ("" = don't write).
  std::string repro_dir;
  /// Stop collecting failures for an oracle after this many (the run
  /// still counts remaining trials for the delta budget).
  std::size_t max_repros_per_oracle = 3;
  bool shrink = true;           // minimize failing formulae
  GenOptions gen;               // base generator knobs (oracles tune())
  double epsilon = 0.1;         // MC accuracy target per trial
  double delta = 0.1;           // MC failure probability per trial
};

/// Per-oracle tallies for one run.
struct OracleStats {
  std::string name;
  bool statistical = false;
  std::size_t trials = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::size_t allowed_failures = 0;  // delta budget (statistical only)
  bool violated = false;             // failures exceed what is allowed
  std::vector<Repro> repros;         // shrunken failing formulae
  std::string first_detail;          // detail of the first failure
};

struct CheckReport {
  std::vector<OracleStats> oracles;

  bool ok() const {
    for (const auto& o : oracles) {
      if (o.violated) return false;
    }
    return true;
  }
};

/// The per-oracle stream tag hash(o) above: FNV-1a of the oracle name.
/// Its values are part of every repro file's replay, so they never
/// change.
std::uint64_t oracle_stream(const std::string& name);

/// Binomial failure budget for a statistical oracle over `trials`
/// trials at per-trial failure probability `delta`.
std::size_t allowed_failures(std::size_t trials, double delta);

/// Runs every selected oracle for options.trials trials. Per-oracle
/// counters (check.<oracle>.{pass,fail,skip} and the trial latency
/// histogram check.<oracle>.trial) land in `metrics` when non-null,
/// absorbed together with each oracle session's own runtime counters.
CheckReport run_checks(const CheckOptions& options,
                       MetricsRegistry* metrics = nullptr);

/// Replays one .cqa repro file: reruns its oracle on the recorded
/// formula. Returns the trial result (kFail means the repro still
/// reproduces).
Result<TrialResult> replay_repro(const Repro& repro, double epsilon = 0.1,
                                 double delta = 0.1);

}  // namespace cqa

#endif  // CQA_CHECK_RUNNER_H_
