// Exact volume of a single convex polytope (Lasserre recursion).
//
// Kept fully rational: instead of the usual Vol(F_i)/||a_i|| (irrational
// norm) the recursion projects each facet along a coordinate axis j with
// a_ij != 0, using Vol_{n-1}(F_i)/||a_i|| = Vol_{n-1}(proj_j F_i)/|a_ij|.
// Serves as the single-cell fast path of the Theorem-3 engine in
// cqa/volume; the sweep forced on the same cell is its independent check.
//
// Work contract. The whole body costs one boundedness proof
// (fm_bounded: dim(dim-1)/2 Fourier-Motzkin eliminations of homogeneous
// rows). Below that no face runs Fourier-Motzkin. A face of dimension
// m >= 2 with r rows costs one m x m elimination (its reference point on
// m of its own rows), r - m row substitutions per facet it opens, and a
// dedup of the opened facet's rows. A 1-D face is read off its rows in
// one pass. Each face, named by the set of rows made tight, is computed
// once per call whichever order reaches it; the memo holding those
// answers is capped at 2^16 faces and freed on return.

#ifndef CQA_GEOMETRY_POLYTOPE_VOLUME_H_
#define CQA_GEOMETRY_POLYTOPE_VOLUME_H_

#include "cqa/geometry/polyhedron.h"

namespace cqa {

/// Exact n-volume of a bounded polyhedron. Errors (kInvalidArgument) on
/// nonempty unbounded input, unless an explicit equality already makes
/// it lower-dimensional. Lower-dimensional (degenerate) and empty
/// polytopes have volume 0.
Result<Rational> polytope_volume(const Polyhedron& p);

/// Exact volume of the simplex with the given dim+1 vertices
/// (|det| / dim!).
Rational simplex_volume(const std::vector<RVec>& vertices);

}  // namespace cqa

#endif  // CQA_GEOMETRY_POLYTOPE_VOLUME_H_
