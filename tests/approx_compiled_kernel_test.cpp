// Differential oracle for the compiled MC membership kernel: on
// identical point sets, CompiledMembership must produce hit counts
// EXACTLY equal to the eval_qf_double tree walk (mc_count_hits) -- the
// bitwise-identity contract that lets the runtime swap kernels without
// perturbing a single sample. Driven by FormulaGen across FO+LIN and
// FO+POLY, plus targeted cases for the corners: empty/always-true
// cells, parameters (folded into the coefficient or multiplied in
// place), params shared with element vars, high exponents, cross terms,
// huge coefficients, repeated element variables, and cancellation.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cqa/aggregate/database.h"
#include "cqa/approx/compiled_membership.h"
#include "cqa/approx/monte_carlo.h"
#include "cqa/approx/random.h"
#include "cqa/check/generator.h"
#include "cqa/logic/parser.h"
#include "cqa/util/cancellation.h"

namespace cqa {
namespace {

// CompiledMembership is move-only; take it out of the Result explicitly.
CompiledMembership must_compile(const FormulaPtr& f,
                                std::vector<std::size_t> element_vars) {
  auto r = CompiledMembership::compile(f, std::move(element_vars));
  if (!r.is_ok()) {
    ADD_FAILURE() << "compile failed: " << r.status().to_string();
    return CompiledMembership();
  }
  return std::move(r).take();
}

std::vector<std::vector<double>> draw_points(std::uint64_t seed,
                                             std::size_t count,
                                             std::size_t dim) {
  WitnessOperator w(seed);
  return w.draw_sample(count, dim);
}

// Both kernels on the same points; returns the common hit count after
// asserting exact equality.
std::size_t assert_equal_counts(
    const FormulaPtr& f, const std::vector<std::size_t>& element_vars,
    const std::map<std::size_t, Rational>& params,
    const std::vector<std::vector<double>>& pts) {
  auto interp =
      mc_count_hits(f, element_vars, params, pts.data(), pts.size());
  EXPECT_TRUE(interp.is_ok()) << interp.status().to_string();
  auto compiled = CompiledMembership::compile(f, element_vars);
  EXPECT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  auto binding = compiled.value().bind(params);
  EXPECT_TRUE(binding.is_ok()) << binding.status().to_string();
  auto hits = compiled.value().count_hits(binding.value(), pts.data(),
                                          pts.size());
  EXPECT_TRUE(hits.is_ok()) << hits.status().to_string();
  EXPECT_EQ(interp.value(), hits.value());
  return hits.value();
}

// --- Generator-driven differential sweep (>= 500 seeded trials) -------

void sweep(bool linear_only, std::uint64_t seed_base, std::size_t trials) {
  std::size_t nonlinear_formulas = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    GenOptions opt;
    opt.dimension = 1 + t % 3;
    opt.max_depth = 2 + t % 3;
    opt.max_atoms = 3 + t % 5;
    opt.linear_only = linear_only;
    opt.allow_eq_atoms = (t % 4) == 0;  // include measure-zero slices
    FormulaGen gen(opt);
    GeneratedFormula g = gen.generate(seed_base + t);
    const std::vector<std::size_t> element_vars = [&] {
      std::vector<std::size_t> ev;
      for (std::size_t i = 0; i < g.dimension; ++i) ev.push_back(i);
      return ev;
    }();
    auto pts = draw_points(seed_base * 31 + t, 64 + (t % 3) * 37,
                           g.dimension);
    assert_equal_counts(g.boxed, element_vars, {}, pts);
    assert_equal_counts(g.core, element_vars, {}, pts);

    auto compiled = CompiledMembership::compile(g.core, element_vars);
    ASSERT_TRUE(compiled.is_ok());
    const CompiledMembership& cm = compiled.value();
    EXPECT_EQ(cm.fallback_atom_count(), 0u)
        << "an atom was left to the interpreter: " << g.text();
    if (cm.atom_count() > cm.linear_atom_count()) ++nonlinear_formulas;
    if (linear_only) {
      EXPECT_EQ(cm.atom_count(), cm.linear_atom_count())
          << "FO+LIN formula lowered a non-linear atom: " << g.text();
    }
  }
  if (!linear_only) {
    // The FO+POLY sweep must actually exercise lowered non-linear atoms.
    EXPECT_GT(nonlinear_formulas, trials / 4);
  }
}

TEST(CompiledKernelDifferential, LinearSweep) { sweep(true, 1000, 300); }

TEST(CompiledKernelDifferential, PolySweep) { sweep(false, 9000, 300); }

// --- Corner cells -----------------------------------------------------

TEST(CompiledKernel, AlwaysTrueAndEmptyCells) {
  auto pts = draw_points(7, 130, 2);
  EXPECT_EQ(assert_equal_counts(Formula::make_true(), {0, 1}, {}, pts),
            pts.size());
  EXPECT_EQ(assert_equal_counts(Formula::make_false(), {0, 1}, {}, pts),
            0u);
  // An unsatisfiable conjunction that does not constant-fold.
  VarTable vars;
  auto contradiction =
      parse_formula("x <= 1/4 & x >= 3/4", &vars).value_or_die();
  EXPECT_EQ(assert_equal_counts(contradiction, {0}, {}, pts), 0u);
}

TEST(CompiledKernel, ZeroPointsAndZeroDimension) {
  VarTable vars;
  auto f = parse_formula("x <= 1/2", &vars).value_or_die();
  std::vector<std::vector<double>> none;
  auto compiled = must_compile(f, {0});
  auto b = compiled.bind({}).value_or_die();
  EXPECT_EQ(compiled.count_hits(b, none.data(), 0).value_or_die(), 0u);
  // No element variables at all: the formula is decided by params only.
  auto g = must_compile(f, {});
  auto pts1 = draw_points(3, 90, 0);
  auto bt = g.bind({{0, Rational(1, 4)}}).value_or_die();
  EXPECT_EQ(g.count_hits(bt, pts1.data(), pts1.size()).value_or_die(),
            pts1.size());
  auto bf = g.bind({{0, Rational(3, 4)}}).value_or_die();
  EXPECT_EQ(g.count_hits(bf, pts1.data(), pts1.size()).value_or_die(), 0u);
}

TEST(CompiledKernel, ParametersMatchInterpreter) {
  VarTable vars;
  auto f = parse_formula("x + 2*a <= 1 & y - a^2 >= 0", &vars)
               .value_or_die();
  const std::size_t x = static_cast<std::size_t>(vars.find("x"));
  const std::size_t y = static_cast<std::size_t>(vars.find("y"));
  const std::size_t a = static_cast<std::size_t>(vars.find("a"));
  auto pts = draw_points(11, 256, 2);
  for (int num = -3; num <= 3; ++num) {
    std::map<std::size_t, Rational> params{{a, Rational(num, 7)}};
    assert_equal_counts(f, {x, y}, params, pts);
  }
  // Unbound parameter: both paths treat a as 0.0.
  assert_equal_counts(f, {x, y}, {}, pts);
}

TEST(CompiledKernel, ParamSharedWithElementVarIsInert) {
  // A parameter on an element variable loses to the per-point
  // coordinate in both kernels: the counts with and without the shared
  // binding are identical.
  VarTable vars;
  auto f = parse_formula("x + y <= 1", &vars).value_or_die();
  auto pts = draw_points(13, 200, 2);
  const std::size_t with_shared =
      assert_equal_counts(f, {0, 1}, {{0, Rational(5)}}, pts);
  const std::size_t without = assert_equal_counts(f, {0, 1}, {}, pts);
  EXPECT_EQ(with_shared, without);
}

TEST(CompiledKernel, OutOfRangeParamIsInvalidArgument) {
  VarTable vars;
  auto f = parse_formula("x <= 1/2", &vars).value_or_die();
  auto pts = draw_points(17, 10, 1);
  const std::map<std::size_t, Rational> params{{9, Rational(1)}};
  auto interp = mc_count_hits(f, {0}, params, pts.data(), pts.size());
  ASSERT_FALSE(interp.is_ok());
  EXPECT_EQ(interp.status().code(), StatusCode::kInvalidArgument);
  auto compiled = must_compile(f, {0});
  auto binding = compiled.bind(params);
  ASSERT_FALSE(binding.is_ok());
  EXPECT_EQ(binding.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompiledKernel, MixedLinearAndNonlinearAtoms) {
  VarTable vars;
  auto f = parse_formula(
               "(x + y <= 1 | x^2 + y^2 <= 1/2) & !(x*y >= 1/3)", &vars)
               .value_or_die();
  auto compiled = must_compile(f, {0, 1});
  EXPECT_EQ(compiled.atom_count(), 3u);
  EXPECT_EQ(compiled.linear_atom_count(), 1u);
  EXPECT_EQ(compiled.fallback_atom_count(), 0u);
  auto pts = draw_points(19, 333, 2);
  assert_equal_counts(f, {0, 1}, {}, pts);
}

// --- Lowered FO+POLY corners ------------------------------------------

TEST(CompiledKernel, ParamFactorsFoldOnlyBeforeElementFactors) {
  // The interpreter multiplies a term's factors in ascending variable
  // index. With a parameter at 10^306, `1000*p` overflows to inf while
  // `1000*x*x` stays small, so multiplying a parameter that follows the
  // element variable into the coefficient early would flip hits to
  // misses: the two atoms pin both the folded and the in-place order.
  const Rational huge = Rational::pow(Rational(10), 306);
  auto pts = draw_points(37, 500, 1);
  {
    VarTable vars;  // p = x0 precedes x = x1: folded at bind time
    auto f = parse_formula("1000*p*x^2 <= 10^307", &vars).value_or_die();
    ASSERT_EQ(vars.find("p"), 0);
    EXPECT_EQ(assert_equal_counts(f, {1}, {{0, huge}}, pts), 0u);
  }
  {
    VarTable vars;  // x = x0 precedes q = x1: multiplied in place
    auto f = parse_formula("1000*x^2*q <= 10^307", &vars).value_or_die();
    ASSERT_EQ(vars.find("q"), 1);
    const std::size_t hits = assert_equal_counts(f, {0}, {{1, huge}}, pts);
    EXPECT_GT(hits, 0u);  // x <= 1/10, about a tenth of the points
    EXPECT_LT(hits, pts.size() / 4);
  }
  for (int num = -4; num <= 4; ++num) {
    VarTable vars;
    auto f = parse_formula("p*x^2 + x^2*q - x*y*q <= 1/3", &vars)
                 .value_or_die();
    const std::size_t p = static_cast<std::size_t>(vars.find("p"));
    const std::size_t x = static_cast<std::size_t>(vars.find("x"));
    const std::size_t q = static_cast<std::size_t>(vars.find("q"));
    const std::size_t y = static_cast<std::size_t>(vars.find("y"));
    assert_equal_counts(f, {x, y},
                        {{p, Rational(num, 3)}, {q, Rational(5 - num, 4)}},
                        draw_points(41 + num, 200, 2));
  }
}

TEST(CompiledKernel, HighExponentsAndCrossTerms) {
  VarTable vars;
  auto f = parse_formula(
               "(x^5 - 3*x^2*y^3 + 1/2*y^5 >= -1/10 & x*y*z <= 1/8) | "
               "x^4*z - y^2*z^3 + x*y*z >= 1/5",
               &vars)
               .value_or_die();
  auto compiled = must_compile(f, {0, 1, 2});
  EXPECT_EQ(compiled.linear_atom_count(), 0u);
  auto pts = draw_points(43, 777, 3);
  const std::size_t hits = assert_equal_counts(f, {0, 1, 2}, {}, pts);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, pts.size());
}

TEST(CompiledKernel, HugeRationalCoefficients) {
  // Numerators and denominators past 52 bits take Rational::to_double's
  // multi-limb path; 10^400 overflows to inf, and inf * 0 -> NaN makes
  // the sign-0 convention decide the atom.
  VarTable vars;
  auto f = parse_formula(
               "123456789012345678901234567890123456789/"
               "98765432109876543210987654321 * x^2 - "
               "31415926535897932384626433832795/"
               "10000000000000000000000000000000 * y <= 1/7 | "
               "10^400*x*y^2 - y <= 0",
               &vars)
               .value_or_die();
  auto pts = draw_points(47, 640, 2);
  assert_equal_counts(f, {0, 1}, {}, pts);
}

TEST(CompiledKernel, RepeatedElementVariable) {
  // element_vars names x twice: the later coordinate wins in both
  // kernels, the earlier one is drawn but unused.
  VarTable vars;
  auto f = parse_formula("x^3 + x*y <= 1/4", &vars).value_or_die();
  auto pts = draw_points(53, 300, 3);
  assert_equal_counts(f, {0, 0, 1}, {}, pts);
}

TEST(CompiledKernel, UnboundNonElementVariableInPolynomialAtom) {
  // z is neither sampled nor bound: it reads as 0.0 in both kernels,
  // both before (w) and after (z) the element variables in index order.
  VarTable vars;
  auto f = parse_formula("w*x^2 + x^2 + y*z^2 - x*y*z <= 1/2", &vars)
               .value_or_die();
  const std::size_t x = static_cast<std::size_t>(vars.find("x"));
  const std::size_t y = static_cast<std::size_t>(vars.find("y"));
  auto pts = draw_points(59, 300, 2);
  assert_equal_counts(f, {x, y}, {}, pts);
  const std::size_t w = static_cast<std::size_t>(vars.find("w"));
  assert_equal_counts(f, {x, y}, {{w, Rational(-3, 2)}}, pts);
}

TEST(CompiledKernel, QuantifiedFormulaRejectedLikeInterpreter) {
  VarTable vars;
  auto f =
      parse_formula("E q . x <= q & q <= 1/2", &vars).value_or_die();
  auto compiled = CompiledMembership::compile(f, {0});
  ASSERT_FALSE(compiled.is_ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kUnsupported);
  auto pts = draw_points(23, 4, 1);
  auto interp = mc_count_hits(f, {0}, {}, pts.data(), pts.size());
  ASSERT_FALSE(interp.is_ok());
  EXPECT_EQ(interp.status().code(), compiled.status().code());
}

// --- Streaming entry point -------------------------------------------

TEST(CompiledKernel, StreamMatchesMaterializedDraws) {
  // count_hits_stream must consume the PRNG in exactly Xoshiro::point
  // order: counting over streamed draws equals counting over the same
  // seed's materialized sample.
  VarTable vars;
  auto f =
      parse_formula("x^2 + y^2 <= 1 & x + y >= 1/4", &vars).value_or_die();
  auto compiled = must_compile(f, {0, 1});
  auto b = compiled.bind({}).value_or_die();
  for (std::uint64_t seed : {1u, 77u, 4096u}) {
    for (std::size_t count : {0u, 1u, 63u, 64u, 65u, 1000u}) {
      auto pts = draw_points(seed, count, 2);
      Xoshiro rng(seed);
      auto stream = compiled.count_hits_stream(b, &rng, count);
      auto aos = compiled.count_hits(b, pts.data(), count);
      ASSERT_TRUE(stream.is_ok() && aos.is_ok());
      EXPECT_EQ(stream.value(), aos.value())
          << "seed=" << seed << " count=" << count;
    }
  }
}

// --- Cancellation -----------------------------------------------------

TEST(CompiledKernel, CancelledTokenStopsAtFirstPoll) {
  VarTable vars;
  auto f = parse_formula("x <= 1/2", &vars).value_or_die();
  auto compiled = must_compile(f, {0});
  auto b = compiled.bind({}).value_or_die();
  auto pts = draw_points(29, 1000, 1);
  CancelToken token;
  token.cancel();
  auto r = compiled.count_hits(b, pts.data(), pts.size(), &token);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Same outcome as the interpreter kernel on the same token.
  auto interp = mc_count_hits(f, {0}, {}, pts.data(), pts.size(), &token);
  ASSERT_FALSE(interp.is_ok());
  EXPECT_EQ(interp.status().code(), StatusCode::kCancelled);
}

TEST(CompiledKernel, UnexpiredTokenCompletes) {
  VarTable vars;
  auto f = parse_formula("x <= 1/2", &vars).value_or_die();
  auto compiled = must_compile(f, {0});
  auto b = compiled.bind({}).value_or_die();
  auto pts = draw_points(31, 3 * kCancelPollStride + 17, 1);
  CancelToken token;
  token.set_deadline_after_ms(60000);
  auto r = compiled.count_hits(b, pts.data(), pts.size(), &token);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(),
            mc_count_hits(f, {0}, {}, pts.data(), pts.size()).value());
}

// --- Estimator plumbing ----------------------------------------------

TEST(McVolumeEstimator, CompiledChunksMatchInterpreterOnSharedSample) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= a", &vars).value_or_die();
  const std::size_t a = static_cast<std::size_t>(vars.find("a"));
  const std::size_t sample_size = 5000;
  const std::uint64_t seed = 99;
  McVolumeEstimator est(&db, phi, {0, 1}, sample_size, seed);
  // The estimator's sample is WitnessOperator(seed) by construction.
  auto sample = draw_points(seed, sample_size, 2);
  for (int num = 1; num <= 5; num += 2) {
    const std::map<std::size_t, Rational> params{{a, Rational(num, 5)}};
    // Repeated calls with identical params exercise the cached Binding.
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto chunked = est.evaluate_chunk(0, sample_size, params);
      auto ref = mc_count_hits(phi, {0, 1}, params, sample.data(),
                               sample_size);
      ASSERT_TRUE(chunked.is_ok() && ref.is_ok());
      EXPECT_EQ(chunked.value(), ref.value()) << "a=" << num << "/5";
    }
  }
  // Chunk splits still sum to the whole.
  const std::map<std::size_t, Rational> params{{a, Rational(1, 2)}};
  auto whole = est.evaluate_chunk(0, sample_size, params).value_or_die();
  std::size_t split = 0;
  for (std::size_t lo = 0; lo < sample_size; lo += 777) {
    const std::size_t hi = std::min(sample_size, lo + 777);
    split += est.evaluate_chunk(lo, hi, params).value_or_die();
  }
  EXPECT_EQ(whole, split);
  // begin == end is a legal empty chunk.
  EXPECT_EQ(est.evaluate_chunk(123, 123, params).value_or_die(), 0u);
}

}  // namespace
}  // namespace cqa
