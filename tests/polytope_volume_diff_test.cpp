// Differential test of the single-cell Lasserre recursion
// (polytope_volume) against the Theorem-3 sweep forced on the same cell
// (semilinear_volume_sweep), which never calls Lasserre. Exact volume is
// canonical, so the two must agree bit for bit on every seeded body, in
// 2-D, 3-D and 4-D: cut cubes, FM-projected cells, duplicate and
// parallel-dominated rows, redundant rows touching at a vertex or an
// edge, flat and empty cells, and mixed strict / non-strict rows.

#include <gtest/gtest.h>

#include "cqa/approx/random.h"
#include "cqa/volume/semilinear_volume.h"

namespace cqa {
namespace {

class BodyGen {
 public:
  explicit BodyGen(std::uint64_t seed) : rng_(seed) {}

  std::int64_t pick(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng_.next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

  static LinearConstraint row(RVec coeffs, Rational rhs,
                              LinCmp cmp = LinCmp::kLe) {
    LinearConstraint c;
    c.coeffs = std::move(coeffs);
    c.rhs = std::move(rhs);
    c.cmp = cmp;
    return c;
  }

  static RVec axis(std::size_t dim, std::size_t v, const Rational& a) {
    RVec out(dim);
    out[v] = a;
    return out;
  }

  static LinearCell unit_box(std::size_t dim) {
    return LinearCell(dim).intersect_box(Rational(0), Rational(1));
  }

  // The exact.poly4 shape in any dimension: the unit cube cut by `cuts`
  // half-spaces sum_i a_i x_i <= (sum_i a_i) * t / 64, a_i in 1..3,
  // t in 26..46.
  LinearCell cut_cube(std::size_t dim, int cuts) {
    LinearCell cell = unit_box(dim);
    for (int k = 0; k < cuts; ++k) {
      RVec a(dim);
      std::int64_t total = 0;
      for (std::size_t v = 0; v < dim; ++v) {
        const std::int64_t c = pick(1, 3);
        total += c;
        a[v] = Rational(c);
      }
      cell.add(row(std::move(a), Rational(total * pick(26, 46), 64)));
    }
    return cell;
  }

  // The exact.proj shape: a unit box in dim+1 coordinates cut by rows
  // that mix the last coordinate e with the others, with e eliminated by
  // Fourier-Motzkin. The projection keeps redundant combination rows.
  LinearCell projected(std::size_t dim) {
    const std::size_t n = dim + 1;
    std::vector<LinearConstraint> rows = unit_box(n).constraints();
    RVec a = axis(n, 0, Rational(pick(1, 3)));
    a[dim] = Rational(1);
    rows.push_back(row(std::move(a), Rational(pick(64, 128), 64)));
    RVec b = axis(n, 1, Rational(pick(1, 3)));
    b[dim] = Rational(-1);
    rows.push_back(row(std::move(b), Rational(pick(16, 64), 64)));
    RVec s(n, Rational(-1));
    rows.push_back(row(std::move(s), Rational(-pick(20, 70), 64)));
    if (dim == 3) {
      RVec z = axis(n, 2, Rational(1));
      z[dim] = Rational(-1);
      rows.push_back(row(std::move(z), Rational(pick(8, 48), 64)));
    }
    LinearCell cell(dim);
    for (const LinearConstraint& c : fm_eliminate(rows, dim)) {
      RVec head(c.coeffs.begin(), c.coeffs.begin() + dim);
      cell.add(row(std::move(head), c.rhs, c.cmp));
    }
    return cell;
  }

  // Rows scaled by 2 and 3 (duplicates after normalization) and looser
  // parallel copies (dominated), appended to a cut cube.
  LinearCell with_shadow_rows(std::size_t dim) {
    LinearCell cell = cut_cube(dim, 2);
    const std::vector<LinearConstraint> base = cell.constraints();
    for (const LinearConstraint& c : base) {
      const Rational k(pick(2, 3));
      cell.add(row(vec_scale(k, c.coeffs), k * c.rhs));
      cell.add(row(c.coeffs, c.rhs + Rational(pick(1, 4), 8)));
    }
    return cell;
  }

  // Redundant rows that touch the unit cube only at the vertex 1..1,
  // only along the edge x_0 = x_1 = 1, and only at the origin.
  LinearCell with_touching_rows(std::size_t dim) {
    LinearCell cell = unit_box(dim);
    const Rational n(static_cast<std::int64_t>(dim));
    cell.add(row(RVec(dim, Rational(1)), n));
    RVec edge = axis(dim, 0, Rational(1));
    edge[1] = Rational(1);
    cell.add(row(std::move(edge), Rational(2)));
    cell.add(row(RVec(dim, Rational(-1)), Rational(0)));
    RVec cut(dim);
    std::int64_t total = 0;
    for (std::size_t v = 0; v < dim; ++v) {
      const std::int64_t c = pick(1, 3);
      total += c;
      cut[v] = Rational(c);
    }
    cell.add(row(std::move(cut), Rational(total * pick(26, 46), 64)));
    return cell;
  }

  // The unit cube with, for every pair of coordinates u < v, the four
  // rows +-x_u +- x_v <= c that touch it along a whole edge (or face) and
  // nowhere else. On a facet x_u = 0 or 1 each of them coincides with a
  // cube row, so every facet carries several repeated rows.
  LinearCell with_edge_rows(std::size_t dim) {
    LinearCell cell = cut_cube(dim, 1);
    for (std::size_t u = 0; u < dim; ++u) {
      for (std::size_t v = u + 1; v < dim; ++v) {
        for (std::int64_t su : {1, -1}) {
          for (std::int64_t sv : {1, -1}) {
            RVec a(dim);
            a[u] = Rational(su);
            a[v] = Rational(sv);
            cell.add(row(std::move(a), Rational((su > 0) + (sv > 0))));
          }
        }
      }
    }
    return cell;
  }

  // A cut cube pinched flat by a <= c and a >= c on one coordinate.
  LinearCell pinched(std::size_t dim) {
    LinearCell cell = cut_cube(dim, 1);
    const std::size_t v = static_cast<std::size_t>(pick(0, dim - 1));
    const Rational at(pick(1, 7), 8);
    cell.add(row(axis(dim, v, Rational(2)), Rational(2) * at));
    cell.add(row(axis(dim, v, Rational(-1)), -at));
    return cell;
  }

  // A cut cube with one row that no point of it satisfies.
  LinearCell emptied(std::size_t dim) {
    LinearCell cell = cut_cube(dim, 1);
    const Rational n(static_cast<std::int64_t>(dim));
    cell.add(row(RVec(dim, Rational(-1)), -n - Rational(1)));
    return cell;
  }

  // A cut cube whose rows are strict at random.
  LinearCell mixed_strict(std::size_t dim) {
    const LinearCell base = cut_cube(dim, 2);
    LinearCell cell(dim);
    for (const LinearConstraint& c : base.constraints()) {
      cell.add(row(c.coeffs, c.rhs, pick(0, 1) ? LinCmp::kLt : LinCmp::kLe));
    }
    return cell;
  }

 private:
  Xoshiro rng_;
};

// polytope_volume and the forced sweep agree exactly; returns the volume.
Rational agree(const LinearCell& cell) {
  auto lasserre = polytope_volume(Polyhedron(cell));
  auto sweep = semilinear_volume_sweep({cell});
  EXPECT_TRUE(lasserre.is_ok()) << cell.to_string();
  EXPECT_TRUE(sweep.is_ok()) << cell.to_string();
  if (!lasserre.is_ok() || !sweep.is_ok()) return Rational(0);
  EXPECT_EQ(lasserre.value(), sweep.value()) << cell.to_string();
  return lasserre.value();
}

class LasserreVsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LasserreVsSweep, CutCubes) {
  BodyGen gen(GetParam());
  EXPECT_GT(agree(gen.cut_cube(2, 3)).sign(), 0);
  EXPECT_GT(agree(gen.cut_cube(3, 3)).sign(), 0);
  EXPECT_GT(agree(gen.cut_cube(4, 1)).sign(), 0);
}

TEST_P(LasserreVsSweep, ProjectedCells) {
  BodyGen gen(GetParam());
  agree(gen.projected(2));
  agree(gen.projected(3));
}

TEST_P(LasserreVsSweep, DuplicateAndDominatedRows) {
  BodyGen gen(GetParam());
  EXPECT_GT(agree(gen.with_shadow_rows(2)).sign(), 0);
  EXPECT_GT(agree(gen.with_shadow_rows(3)).sign(), 0);
}

TEST_P(LasserreVsSweep, RedundantRowsTouchingAVertexOrEdge) {
  BodyGen gen(GetParam());
  EXPECT_GT(agree(gen.with_touching_rows(2)).sign(), 0);
  EXPECT_GT(agree(gen.with_touching_rows(3)).sign(), 0);
  EXPECT_GT(agree(gen.with_touching_rows(4)).sign(), 0);
}

TEST_P(LasserreVsSweep, RowsRepeatedOnEveryFacet) {
  BodyGen gen(GetParam());
  EXPECT_GT(agree(gen.with_edge_rows(2)).sign(), 0);
  EXPECT_GT(agree(gen.with_edge_rows(3)).sign(), 0);
}

TEST_P(LasserreVsSweep, FlatCellsAreZero) {
  BodyGen gen(GetParam());
  for (std::size_t dim = 2; dim <= 4; ++dim) {
    EXPECT_EQ(agree(gen.pinched(dim)), Rational(0)) << dim;
  }
}

TEST_P(LasserreVsSweep, EmptyCellsAreZero) {
  BodyGen gen(GetParam());
  for (std::size_t dim = 2; dim <= 4; ++dim) {
    EXPECT_EQ(agree(gen.emptied(dim)), Rational(0)) << dim;
  }
}

TEST_P(LasserreVsSweep, StrictAndNonStrictRows) {
  BodyGen gen(GetParam());
  EXPECT_GT(agree(gen.mixed_strict(2)).sign(), 0);
  EXPECT_GT(agree(gen.mixed_strict(3)).sign(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LasserreVsSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// The full exact.poly4 shape: 11 rows in 4-D. The 4-D sweep is slow, so
// this runs on two seeds only.
TEST(LasserreVsSweepPoly4, ThreeCutFourCube) {
  for (std::uint64_t seed : {11u, 12u}) {
    BodyGen gen(seed);
    EXPECT_GT(agree(gen.cut_cube(4, 3)).sign(), 0) << seed;
  }
}

void expect_unbounded(const LinearCell& cell) {
  auto lasserre = polytope_volume(Polyhedron(cell));
  ASSERT_FALSE(lasserre.is_ok()) << cell.to_string();
  EXPECT_EQ(lasserre.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(semilinear_volume_sweep({cell}).is_ok()) << cell.to_string();
}

TEST(LasserreVsSweepPoly4, UnboundedIsInvalid) {
  for (std::size_t dim = 2; dim <= 4; ++dim) {
    // The positive orthant: every row passes through the origin.
    LinearCell orthant(dim);
    for (std::size_t v = 0; v < dim; ++v) {
      orthant.add(BodyGen::row(BodyGen::axis(dim, v, Rational(-1)),
                               Rational(0)));
    }
    expect_unbounded(orthant);
    // A flat slab x_0 = 1/2 (two opposite rows) that is unbounded in it.
    LinearCell slab(dim);
    slab.add(BodyGen::row(BodyGen::axis(dim, 0, Rational(1)), Rational(1, 2)));
    slab.add(BodyGen::row(BodyGen::axis(dim, 0, Rational(-1)),
                          Rational(-1, 2)));
    EXPECT_FALSE(polytope_volume(Polyhedron(slab)).is_ok()) << dim;
    // The orthant cut by a row that leaves x_0 free above.
    RVec rest(dim, Rational(1));
    rest[0] = Rational(0);
    orthant.add(BodyGen::row(std::move(rest), Rational(1)));
    expect_unbounded(orthant);
  }
}

}  // namespace
}  // namespace cqa
