// Union volume by inclusion-exclusion over cell subsets.
//
// Vol(U C_i) = sum over nonempty J of (-1)^{|J|+1} Vol(intersection of J),
// with each term a single convex polytope (Lasserre). This is the unpruned
// enumeration of all 2^k - 1 subsets, exponential in the number of cells:
// the ablation baseline against the Theorem-3 sweep (bench E2), and an
// independent check of semilinear_volume, which visits only the cliques
// of the cells' overlap graph and stops at a term budget.

#ifndef CQA_VOLUME_INCLUSION_EXCLUSION_H_
#define CQA_VOLUME_INCLUSION_EXCLUSION_H_

#include <vector>

#include "cqa/constraint/linear_cell.h"

namespace cqa {

/// Exact union volume via inclusion-exclusion. All cells bounded, same
/// ambient dimension. Errors beyond `max_cells` (2^k terms).
Result<Rational> volume_inclusion_exclusion(
    const std::vector<LinearCell>& cells, std::size_t max_cells = 20);

}  // namespace cqa

#endif  // CQA_VOLUME_INCLUSION_EXCLUSION_H_
