// Compiled batch membership kernel for the Monte-Carlo hit test.
//
// The per-sample path used to be a Formula tree walk (eval_qf_double):
// one virtual-free but pointer-chasing recursion per point, plus a map
// walk over `params` and a freshly allocated point vector per chunk.
// CompiledMembership lowers a quantifier-free inlined formula ONCE into
// a flat plan:
//
//  * one atom table for FO+LIN and FO+POLY alike -- per atom an ordered
//    run of terms, per term a coefficient (Rational::to_double, once)
//    and an ordered run of factor columns, each variable repeated once
//    per unit of its exponent -- evaluated column-wise over SoA point
//    blocks of kBlockPoints: one tight, vectorizable pass per factor,
//    no interpreter call and no per-lane branching;
//  * a short-circuit boolean cell program over 64-bit lane masks: an AND
//    node stops evaluating children once no lane is still live, an OR
//    node once every lane is decided -- block-level short-circuiting
//    with pointwise-identical semantics to the tree walk.
//
// Bitwise-identity contract: for every point, the kernel performs the
// exact floating-point operations Polynomial::eval_double performs, in
// the same order -- `out = 0.0`, terms in the polynomial's monomial
// order, per term `t = c` then `t *= x` once per exponent unit with the
// variables in ascending index, then `out += t` -- so hit counts are
// EXACTLY equal to the tree walk, not just statistically close. The
// build compiles with -ffp-contract=off so neither path is silently
// FMA-contracted differently. The differential suite in
// tests/approx_compiled_kernel_test.cpp gates this contract.
//
// Parameter binding is hoisted out of the per-chunk loop: bind() folds
// `params` into a Binding once. A non-element (parameter or unbound)
// factor that precedes every element factor of its term multiplies
// into the term's coefficient at bind time -- the same products in the
// same order; any later non-element factor multiplies in place against
// a broadcast column, so the order stays exact. A parameter index
// outside the formula's variable range is a kInvalidArgument instead
// of the silent drop the old kernel performed.

#ifndef CQA_APPROX_COMPILED_MEMBERSHIP_H_
#define CQA_APPROX_COMPILED_MEMBERSHIP_H_

#include <cstdint>
#include <map>
#include <vector>

#include "cqa/approx/random.h"
#include "cqa/guard/meter.h"
#include "cqa/logic/formula.h"
#include "cqa/util/cancellation.h"

namespace cqa {

/// Cancellation poll period of the membership hot loops, in points.
/// Shared with the reference interpreter kernel (mc_count_hits) so the
/// compiled and interpreted paths observe expiry at the same stride.
inline constexpr std::size_t kCancelPollStride = 256;

class CompiledMembership {
 public:
  /// Points per SoA block; one bit per point in the lane masks.
  static constexpr std::size_t kBlockPoints = 64;

  /// Parameters folded into evaluable form: per-term coefficients with
  /// the leading non-element factors multiplied in, plus the values of
  /// the non-element variables for the broadcast columns. Immutable
  /// once built; safe to share across worker threads.
  class Binding {
   public:
    Binding() = default;

   private:
    friend class CompiledMembership;
    std::vector<double> coeff;   // per Term, leading factors folded in
    std::vector<double> scalar;  // per scalar_vars_ entry: param or 0.0
  };

  CompiledMembership() = default;
  CompiledMembership(CompiledMembership&&) = default;
  CompiledMembership& operator=(CompiledMembership&&) = default;

  /// Lowers `inlined` (a predicate-inlined formula) for sampling over
  /// `element_vars` coordinates. Fails with kUnsupported on quantified
  /// input and kInvalidArgument on predicates (mirroring the
  /// interpreter's runtime errors, surfaced early). Charges `meter`
  /// (nullptr = unmetered) for the plan footprint; a tripped quota or
  /// the kCompileMembership chaos fault aborts compilation with
  /// kResourceExhausted, which the session degrades down the guard
  /// ladder like any other exhaustion.
  static Result<CompiledMembership> compile(
      const FormulaPtr& inlined, std::vector<std::size_t> element_vars,
      guard::WorkMeter* meter = nullptr);

  /// Folds `params` into a reusable Binding. kInvalidArgument when a
  /// parameter index lies outside the formula's variable range (the old
  /// kernel silently dropped it). A parameter on an element variable is
  /// legal and inert: per-point coordinates overwrite it, exactly as
  /// the interpreter's point-scratch rebinding behaves.
  Result<Binding> bind(const std::map<std::size_t, Rational>& params) const;

  /// Hit count over `count` array-of-struct points (each a
  /// |element_vars|-vector), identical semantics to mc_count_hits on
  /// the same points. Polls `cancel` every kCancelPollStride points.
  Result<std::size_t> count_hits(const Binding& binding,
                                 const std::vector<double>* points,
                                 std::size_t count,
                                 const CancelToken* cancel = nullptr) const;

  /// Streaming variant: draws `count` points from `rng` (same draw
  /// order as WitnessOperator/Xoshiro::point, so chunk streams are
  /// bitwise reproducible) directly into SoA block scratch -- no
  /// per-point or per-chunk heap allocation.
  Result<std::size_t> count_hits_stream(
      const Binding& binding, Xoshiro* rng, std::size_t count,
      const CancelToken* cancel = nullptr) const;

  std::size_t dimension() const { return element_vars_.size(); }
  /// Lowered atoms in total, those whose polynomial is affine, and
  /// those left to a per-lane interpreter -- exposed so tests and the
  /// benchmark can pin which shape a formula exercises. Every atom is
  /// lowered, so the fallback count is always 0.
  std::size_t atom_count() const { return atoms_.size(); }
  std::size_t linear_atom_count() const { return linear_atoms_; }
  std::size_t fallback_atom_count() const { return 0; }

 private:
  // One lowered atom: value_i = 0.0 + sum of terms [term_begin,
  // term_end) in the polynomial's monomial order. holds[sign + 1] is
  // op_holds(op, sign) precomputed, so the lane masks follow the
  // interpreter's exact sign convention (NaN compares false both ways
  // -> sign 0).
  struct Atom {
    std::uint32_t term_begin = 0;
    std::uint32_t term_end = 0;
    bool holds[3] = {false, false, false};
  };
  // One term: coeff * the factor columns factors_[factor_begin,
  // factor_end), multiplied left to right. Columns 0..dim-1 are element
  // coordinates; column dim + s broadcasts scalar_vars_[s]'s bound
  // value. Factors [factor_begin, fold_end) are all broadcast columns
  // preceding every element factor: bind() multiplies them into the
  // coefficient, so the lane loop starts at fold_end.
  struct Term {
    double coeff = 0.0;
    std::uint32_t factor_begin = 0;
    std::uint32_t fold_end = 0;
    std::uint32_t factor_end = 0;
  };
  // Flattened boolean cell program node.
  struct Node {
    enum class Op : std::uint8_t { kTrue, kFalse, kAtom, kNot, kAnd, kOr };
    Op op = Op::kTrue;
    std::uint32_t a = 0;  // kAtom: atom index; kNot/kAnd/kOr: child lo
    std::uint32_t b = 0;  // kNot/kAnd/kOr: child hi (range into child_ids_)
  };

  struct Scratch;  // thread-local SoA buffers, defined in the .cpp

  Result<std::uint32_t> lower(
      const FormulaPtr& f,
      const std::map<std::size_t, std::uint32_t>& var_col);
  std::uint64_t eval_atom(const Atom& a, const Binding& binding,
                          Scratch* scratch) const;
  std::uint64_t eval_mask(std::uint32_t node, std::uint64_t active,
                          const Binding& binding, Scratch* scratch) const;
  Result<std::size_t> count_blocks(const Binding& binding,
                                   const std::vector<double>* aos_points,
                                   Xoshiro* rng, std::size_t count,
                                   const CancelToken* cancel) const;

  std::vector<std::size_t> element_vars_;
  std::size_t point_size_ = 0;  // max_var + 1 over formula and elements
  std::vector<Atom> atoms_;
  std::size_t linear_atoms_ = 0;
  std::vector<Term> terms_;
  std::vector<std::uint32_t> factors_;     // column per exponent unit
  std::vector<std::size_t> scalar_vars_;   // variable per broadcast column
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> child_ids_;
  std::uint32_t root_ = 0;
};

}  // namespace cqa

#endif  // CQA_APPROX_COMPILED_MEMBERSHIP_H_
