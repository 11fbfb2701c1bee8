// Exact Fourier-Motzkin elimination over the rationals.
//
// The closure engine of FO+LIN: projecting a conjunction of linear
// constraints along a variable yields a conjunction of linear constraints,
// which is exactly why the constraint model is closed under FO queries.
// Strictness propagates (strict combined with anything is strict);
// equalities are used as Gaussian pivots before inequality combination.

#ifndef CQA_CONSTRAINT_FOURIER_MOTZKIN_H_
#define CQA_CONSTRAINT_FOURIER_MOTZKIN_H_

#include <optional>
#include <vector>

#include "cqa/constraint/linear_atom.h"
#include "cqa/guard/meter.h"

namespace cqa {

/// Eliminates variable `var` from the conjunction: the result holds for
/// (x_0..x_{n-1} without x_var) iff some value of x_var satisfies the
/// input. Coefficients of `var` in the output are all zero (the slot
/// remains in the vectors so indices stay stable).
///
/// `meter` (nullptr = unmetered) charges one fm_rows high-water unit per
/// produced row; once the quota trips the pair-combination loop stops
/// and the (truncated, no longer equivalent) system is returned -- the
/// caller MUST poll meter->tripped() and discard the result. The quota
/// is what bounds the quadratic lowers-x-uppers blowup.
std::vector<LinearConstraint> fm_eliminate(
    const std::vector<LinearConstraint>& cs, std::size_t var,
    guard::WorkMeter* meter = nullptr);

/// Removes syntactic duplicates and pairwise-dominated rows.
std::vector<LinearConstraint> fm_simplify(
    const std::vector<LinearConstraint>& cs);

/// Exact feasibility of a conjunction over R^dim (strict-aware).
bool fm_feasible(const std::vector<LinearConstraint>& cs, std::size_t dim);

/// Whether the solution set over R^dim is bounded (the empty set is).
/// Decided on the recession cone {d : A d <= 0, E d = 0}: a nonempty set
/// is bounded iff the cone is {0}, and the cone is {0} iff its
/// projection on d_0 is {0} and so is its section d_0 = 0, one
/// coordinate fewer -- dim(dim-1)/2 eliminations of homogeneous rows in
/// all, where projecting the set on every axis takes dim(dim-1).
bool fm_bounded(const std::vector<LinearConstraint>& cs, std::size_t dim);

/// A satisfying point if one exists (strict-aware: the point strictly
/// satisfies every strict constraint).
std::optional<RVec> fm_sample_point(const std::vector<LinearConstraint>& cs,
                                    std::size_t dim);

/// The tight lower/upper bounds the conjunction induces on variable `var`
/// once every other variable has been eliminated: the projection of the
/// solution set onto the var-axis, described as an interval.
struct AxisInterval {
  /// Unbounded below / above when the optionals are empty.
  std::optional<Rational> lo, hi;
  bool lo_strict = false, hi_strict = false;
  /// Whether the projection is empty.
  bool empty = false;
};
AxisInterval fm_project_to_axis(const std::vector<LinearConstraint>& cs,
                                std::size_t var, std::size_t dim);

}  // namespace cqa

#endif  // CQA_CONSTRAINT_FOURIER_MOTZKIN_H_
