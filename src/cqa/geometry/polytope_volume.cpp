#include "cqa/geometry/polytope_volume.h"

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace cqa {

namespace {

// The rows of one face, each tagged with the index of the top-level row
// it descends from.
struct Face {
  std::vector<LinearConstraint> rows;
  std::vector<std::size_t> ids;
};

// A face is named by the set of top-level rows made tight on the way down
// to it (a bitset over row ids).
using FaceKey = std::vector<std::uint64_t>;

// Faces remembered per call; past this many the recursion still runs, it
// just stops remembering, so the memo stays bounded on large inputs.
constexpr std::size_t kMaxMemoFaces = std::size_t{1} << 16;

Status unbounded() {
  return Status::invalid("polytope_volume: unbounded body");
}

// Substitutes x_j = (rhs - sum_{k != j} a_k x_k) / a_j (from the facet
// equality a.x = rhs) into constraint c, then drops slot j.
LinearConstraint substitute_and_drop(const LinearConstraint& c,
                                     const RVec& a, const Rational& rhs,
                                     std::size_t j) {
  const Rational inv = a[j].inverse();
  LinearConstraint out;
  out.cmp = c.cmp;
  const Rational f = c.coeffs[j] * inv;
  out.rhs = c.rhs - f * rhs;
  out.coeffs.reserve(c.coeffs.size() - 1);
  for (std::size_t k = 0; k < c.coeffs.size(); ++k) {
    if (k == j) continue;
    out.coeffs.push_back(c.coeffs[k] - f * a[k]);
  }
  return out;
}

// Length over |det| of a 1-D face, read off its rows directly (no row is
// constant).
Result<Rational> edge(const std::vector<LinearConstraint>& rows,
                      const Rational& det) {
  std::optional<Rational> lo, hi;
  for (const LinearConstraint& c : rows) {
    const Rational bound = c.rhs / c.coeffs[0];
    if (c.coeffs[0].sign() > 0) {
      if (!hi || bound < *hi) hi = bound;
    } else {
      if (!lo || bound > *lo) lo = bound;
    }
  }
  if (lo && hi && *lo >= *hi) return Rational(0);
  if (!lo || !hi) return unbounded();
  return (*hi - *lo) / det.abs();
}

// Keeps, of the rows sharing one normalized left-hand side, the tightest
// (the first on a tie): the others bound no face of positive volume, and
// a repeated facet would be counted twice.
void drop_shadowed(Face* f) {
  std::vector<LinearConstraint> norm;
  norm.reserve(f->rows.size());
  for (const LinearConstraint& c : f->rows) norm.push_back(c.normalized());
  std::vector<bool> dead(f->rows.size(), false);
  for (std::size_t a = 0; a < norm.size(); ++a) {
    for (std::size_t b = a + 1; b < norm.size() && !dead[a]; ++b) {
      if (dead[b] || norm[a].coeffs != norm[b].coeffs) continue;
      if (norm[b].rhs < norm[a].rhs) {
        dead[a] = true;
      } else {
        dead[b] = true;
      }
    }
  }
  std::size_t out = 0;
  for (std::size_t k = 0; k < norm.size(); ++k) {
    if (dead[k]) continue;
    if (out != k) {
      f->rows[out] = std::move(f->rows[k]);
      f->ids[out] = f->ids[k];
    }
    ++out;
  }
  f->rows.resize(out);
  f->ids.resize(out);
}

// A point on the hyperplanes of `dim` linearly independent rows of `f`,
// taken greedily in `order`; nullopt when the rows do not span R^dim.
std::optional<RVec> arrangement_vertex(const Face& f,
                                       const std::vector<std::size_t>& order,
                                       std::size_t dim) {
  std::vector<RVec> basis;  // reduced [coeffs | rhs] rows, echelon order
  std::vector<std::size_t> pivot;
  for (std::size_t i : order) {
    RVec v = f.rows[i].coeffs;
    v.push_back(f.rows[i].rhs);
    for (std::size_t b = 0; b < basis.size(); ++b) {
      if (v[pivot[b]].is_zero()) continue;
      const Rational s = v[pivot[b]] / basis[b][pivot[b]];
      for (std::size_t k = 0; k <= dim; ++k) {
        if (!basis[b][k].is_zero()) v[k] -= s * basis[b][k];
      }
    }
    std::size_t col = 0;
    while (col < dim && v[col].is_zero()) ++col;
    if (col == dim) continue;  // dependent on the rows already taken
    basis.push_back(std::move(v));
    pivot.push_back(col);
    if (basis.size() == dim) break;
  }
  if (basis.size() < dim) return std::nullopt;
  // Row b is zero on the pivots of rows before it: solve back to front.
  RVec p(dim);
  for (std::size_t b = dim; b-- > 0;) {
    Rational acc = basis[b][dim];
    for (std::size_t k = 0; k < dim; ++k) {
      if (k != pivot[b] && !basis[b][k].is_zero()) acc -= basis[b][k] * p[k];
    }
    p[pivot[b]] = acc / basis[b][pivot[b]];
  }
  return p;
}

// Lasserre's recursion with rational facet projections and a face memo.
//
// Lasserre's identity  m * vol(F) = sum_i h_i(p) * vol_{m-1}(F_i) / |a_i|
// (h_i = rhs_i - a_i . p, F_i the face where row i is tight) is the
// divergence theorem for the field x - p, so it holds for every point p,
// inside the face or not, with signed heights. Each face therefore takes
// p on the hyperplanes of m of its own rows: those rows have height 0
// and their facets are never built. Rows whose facet the memo already
// holds are the last ones picked for p, so p spends its zeros on facets
// that would otherwise cost work.
//
// On a face F of dimension m (coordinates K left after the pivots of the
// tight rows S were solved for and dropped), vol_K(F) is the m-volume of
// F's projection onto K. The recursion never rescales a row, so the
// product D of the pivots along the path is det A_S[:, J], and
//
//   N(S) = vol_K(F) / |D| = (1/m) * sum_i h_i * N(S + {i}).
//
// N depends on S alone, not on the path or on J (it is the true volume
// over sqrt(det A_S A_S^T)), so a face reached along several orders of
// the same tight rows is computed once. At the top S is empty, D = 1, and
// N is the volume.
//
// No face runs Fourier-Motzkin: the body is known to be bounded (or
// empty), so a face whose rows do not span its coordinates is empty, an
// empty face sums to 0 on its own, and a 1-D face is read directly.
class Lasserre {
 public:
  // N of face `f` (no constant row, no two rows with the same normalized
  // left-hand side) in `dim` >= 2 coordinates.
  Result<Rational> face(const Face& f, std::size_t dim, const FaceKey& key,
                        const Rational& det) {
    const std::size_t n = f.rows.size();
    std::vector<FaceKey> keys(n, key);
    std::vector<const Rational*> known(n, nullptr);
    std::vector<std::size_t> order;  // unknown facets first
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i][f.ids[i] / 64] |= std::uint64_t{1} << (f.ids[i] % 64);
      auto hit = memo_.find(keys[i]);
      if (hit != memo_.end()) {
        known[i] = &hit->second;
      } else {
        order.push_back(i);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (known[i] != nullptr) order.push_back(i);
    }
    // Rows that leave a direction free bound no nonempty face here.
    auto p = arrangement_vertex(f, order, dim);
    if (!p.has_value()) return Rational(0);

    Rational total;
    for (std::size_t i = 0; i < n; ++i) {
      const LinearConstraint& c = f.rows[i];
      Rational lhs;
      for (std::size_t k = 0; k < dim; ++k) lhs += c.coeffs[k] * (*p)[k];
      const Rational height = c.rhs - lhs;
      if (height.is_zero()) continue;  // facet through p adds 0
      if (known[i] != nullptr) {
        total += height * *known[i];
        continue;
      }
      auto sub = facet(f, i, dim, keys[i], det);
      if (!sub.is_ok()) return sub;
      total += height * sub.value();
      if (memo_.size() < kMaxMemoFaces) {
        memo_.emplace(std::move(keys[i]), std::move(sub).value());
      }
    }
    return total / Rational(static_cast<std::int64_t>(dim));
  }

 private:
  // N of the facet of `f` where row i is tight.
  Result<Rational> facet(const Face& f, std::size_t i, std::size_t dim,
                         const FaceKey& key, const Rational& det) {
    const LinearConstraint& t = f.rows[i];
    // Solve for the coordinate with the largest normal component.
    std::size_t j = 0;
    for (std::size_t k = 1; k < dim; ++k) {
      if (t.coeffs[k].abs() > t.coeffs[j].abs()) j = k;
    }
    Face sub;
    sub.rows.reserve(f.rows.size() - 1);
    sub.ids.reserve(f.rows.size() - 1);
    for (std::size_t k = 0; k < f.rows.size(); ++k) {
      if (k == i) continue;
      LinearConstraint c = substitute_and_drop(f.rows[k], t.coeffs, t.rhs, j);
      if (c.is_constant()) {
        if (!c.constant_truth()) return Rational(0);  // empty facet
        continue;
      }
      sub.rows.push_back(std::move(c));
      sub.ids.push_back(f.ids[k]);
    }
    const Rational sub_det = det * t.coeffs[j];
    if (dim == 2) return edge(sub.rows, sub_det);
    drop_shadowed(&sub);
    return face(sub, dim - 1, key, sub_det);
  }

  std::map<FaceKey, Rational> memo_;
};

}  // namespace

Result<Rational> polytope_volume(const Polyhedron& p) {
  const std::size_t dim = p.dim();
  Face top;
  for (LinearConstraint& c : fm_simplify(p.constraints())) {
    if (c.is_constant()) return Rational(0);  // a false ground row
    // Explicit equalities make the body lower-dimensional.
    if (c.cmp == LinCmp::kEq) return Rational(0);
    top.ids.push_back(top.rows.size());
    top.rows.push_back(std::move(c));
  }
  if (dim == 0) return Rational(1);
  if (dim == 1) return edge(top.rows, Rational(1));
  // The only whole-body check; every face of a bounded body is bounded.
  if (!fm_bounded(top.rows, dim)) return unbounded();
  const FaceKey top_key((top.rows.size() + 63) / 64, 0);  // S empty
  return Lasserre().face(top, dim, top_key, Rational(1));
}

Rational simplex_volume(const std::vector<RVec>& vertices) {
  CQA_CHECK(!vertices.empty());
  const std::size_t dim = vertices[0].size();
  CQA_CHECK(vertices.size() == dim + 1);
  Matrix m(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      m.at(r, c) = vertices[r + 1][c] - vertices[0][c];
    }
  }
  Rational det = m.determinant().abs();
  BigInt fact(1);
  for (std::size_t k = 2; k <= dim; ++k) {
    fact *= BigInt(static_cast<std::int64_t>(k));
  }
  return det / Rational(fact);
}

}  // namespace cqa
