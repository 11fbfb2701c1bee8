// Exact volume of arbitrary semi-linear sets (the Theorem 3 engine).
//
// The paper proves FO+POLY+SUM can express VOL of any semi-linear
// database; the proof is an algorithm, and this module implements it:
//
//   VOL(S) = Integral g(t) dt,   g(t) = VOL_{n-1}(S cap {x_0 = t}).
//
// For semi-linear S the section-volume g is piecewise polynomial of degree
// <= n-1 whose breakpoints lie among the x_0-coordinates of the vertices
// of the arrangement spanned by all cell constraints. We enumerate those
// vertices exactly, interpolate g on each open breakpoint interval from n
// exact rational samples (recursing into dimension n-1), and integrate the
// interpolants exactly. Unions and overlaps cost nothing extra: the
// recursion bottoms out in 1-D interval merging.
//
// semilinear_volume sweeps only as a fallback. It first sums
// inclusion-exclusion over the cliques of the cells' interior-overlap
// graph (one Lasserre polytope_volume per term), up to a fixed budget of
// terms; see semilinear_volume() for the path order.

#ifndef CQA_VOLUME_SEMILINEAR_VOLUME_H_
#define CQA_VOLUME_SEMILINEAR_VOLUME_H_

#include <vector>

#include "cqa/constraint/linear_cell.h"
#include "cqa/geometry/polytope_volume.h"
#include "cqa/guard/meter.h"
#include "cqa/logic/formula.h"
#include "cqa/util/cancellation.h"

namespace cqa {

/// Statistics of one exact-volume computation (for the benches).
struct VolumeStats {
  std::size_t sweep_calls = 0;        // recursive sweep invocations
  std::size_t lasserre_calls = 0;     // inclusion-exclusion terms evaluated
  std::size_t breakpoints = 0;        // total breakpoints enumerated
  std::size_t sections_evaluated = 0; // recursive section evaluations
};

/// Exact volume of the union of the cells. All cells must share the same
/// ambient dimension and be bounded (kInvalidArgument otherwise). Overlaps
/// are fine. Path order, after cells with empty interior are dropped:
///  1. In dimension >= 2, inclusion-exclusion over the cliques of the
///     interior-overlap graph: a term is the Lasserre volume of a clique's
///     intersection, and only nonzero terms are extended by one more
///     adjacent cell. A single cell and pairwise interior-disjoint cells
///     are its 1-clique and no-edge cases.
///  2. The sweep, when dimension is 1 (an interval merge) or the union
///     needs more than the fixed term budget (256 terms, about eight
///     mutually overlapping cells); its sections recurse through 1.
/// Each term and each section polls `cancel` (kCancelled /
/// kDeadlineExceeded once expired) and charges `meter` one
/// `sweep_sections` unit; a tripped quota (sweep sections, resident-bytes
/// estimate) aborts with kResourceExhausted within one term or section
/// of the limit instead of running the whole enumeration or arrangement.
Result<Rational> semilinear_volume(const std::vector<LinearCell>& cells,
                                   VolumeStats* stats = nullptr,
                                   const CancelToken* cancel = nullptr,
                                   guard::WorkMeter* meter = nullptr);

/// Forces the sweep at every level, with no inclusion-exclusion term
/// (for ablations, and the independent check of semilinear_volume).
Result<Rational> semilinear_volume_sweep(const std::vector<LinearCell>& cells,
                                         VolumeStats* stats = nullptr,
                                         const CancelToken* cancel = nullptr,
                                         guard::WorkMeter* meter = nullptr);

/// VOL(phi(D)) for a quantifier-free, predicate-free FO+LIN formula with
/// free variables 0..dim-1. The denotation must be bounded.
Result<Rational> formula_volume(const FormulaPtr& f, std::size_t dim);

/// VOL_I: volume of the denotation intersected with [0,1]^dim (always
/// defined; the paper's bounded operator).
Result<Rational> formula_volume_I(const FormulaPtr& f, std::size_t dim);

/// Drops coordinate `var` from a cell whose constraints do not mention it
/// (shifting higher variable indices down by one).
LinearCell drop_var(const LinearCell& cell, std::size_t var);

/// Full-dimensionality test: the cell's interior (all constraints made
/// strict) is nonempty. Lower-dimensional cells have measure zero.
bool is_full_dimensional(const LinearCell& cell);

}  // namespace cqa

#endif  // CQA_VOLUME_SEMILINEAR_VOLUME_H_
