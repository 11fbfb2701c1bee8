// Differential test of the exact union path of semilinear_volume
// (inclusion-exclusion over the cliques of the cells' interior-overlap
// graph, with the sweep as the over-budget fallback) against the Theorem-3
// sweep forced on the same cells (semilinear_volume_sweep), which
// evaluates no inclusion-exclusion term. Exact volume is canonical, so the
// two must agree bit for bit on every seeded union, in 2-D and 3-D:
// union2-shaped four-cell unions, nested and identical cells, cells that
// touch only along a face or an edge, triples that overlap pairwise but
// share no interior, and mixed strict / non-strict rows. The stats pin
// which terms the clique enumeration visits and when it falls back.

#include <gtest/gtest.h>

#include <thread>

#include "cqa/approx/random.h"
#include "cqa/volume/semilinear_volume.h"

namespace cqa {
namespace {

LinearConstraint row(RVec coeffs, Rational rhs, LinCmp cmp = LinCmp::kLe) {
  LinearConstraint c;
  c.coeffs = std::move(coeffs);
  c.rhs = std::move(rhs);
  c.cmp = cmp;
  return c;
}

RVec axis(std::size_t dim, std::size_t v, const Rational& a) {
  RVec out(dim);
  out[v] = a;
  return out;
}

// The box prod [lo_v, hi_v] (in 64ths).
LinearCell box(const std::vector<std::int64_t>& lo,
               const std::vector<std::int64_t>& hi) {
  const std::size_t dim = lo.size();
  LinearCell cell(dim);
  for (std::size_t v = 0; v < dim; ++v) {
    cell.add(row(axis(dim, v, Rational(-1)), Rational(-lo[v], 64)));
    cell.add(row(axis(dim, v, Rational(1)), Rational(hi[v], 64)));
  }
  return cell;
}

class UnionGen {
 public:
  explicit UnionGen(std::uint64_t seed) : rng_(seed) {}

  std::int64_t pick(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng_.next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

  // The exact.union2 cell in any dimension: a box of side 12..25 at
  // 0..38 (in 64ths) cut by sum_v x_v <= s, s between the box's centre
  // and its far corner.
  LinearCell cut_box(std::size_t dim) {
    std::vector<std::int64_t> lo(dim), hi(dim);
    for (std::size_t v = 0; v < dim; ++v) {
      lo[v] = pick(0, 38);
      hi[v] = lo[v] + pick(12, 25);
    }
    return cut(lo, hi);
  }

  LinearCell cut(const std::vector<std::int64_t>& lo,
                 const std::vector<std::int64_t>& hi) {
    std::int64_t corner = 0, span = 0;
    for (std::size_t v = 0; v < lo.size(); ++v) {
      corner += lo[v];
      span += hi[v] - lo[v];
    }
    LinearCell cell = box(lo, hi);
    const std::int64_t s = corner + span / 2 + pick(0, span / 2);
    cell.add(row(RVec(lo.size(), Rational(1)), Rational(s, 64)));
    return cell;
  }

  std::vector<LinearCell> union2(std::size_t dim) {
    std::vector<LinearCell> cells;
    for (int i = 0; i < 4; ++i) cells.push_back(cut_box(dim));
    return cells;
  }

  // A cut box, the same cell again, a box around it, and another cell.
  std::vector<LinearCell> nested(std::size_t dim) {
    std::vector<std::int64_t> lo(dim), hi(dim), outer_lo(dim), outer_hi(dim);
    for (std::size_t v = 0; v < dim; ++v) {
      lo[v] = pick(0, 38);
      hi[v] = lo[v] + pick(12, 25);
      outer_lo[v] = lo[v] - pick(0, 6);
      outer_hi[v] = hi[v] + pick(0, 6);
    }
    const LinearCell inner = cut(lo, hi);
    return {inner, inner, box(outer_lo, outer_hi), cut_box(dim)};
  }

  // Two boxes sharing the face x_0 = m, a box that meets the left one on
  // the face x_1 = top and the right one only on the edge x_0 = m,
  // x_1 = top, and a box straddling the shared face.
  std::vector<LinearCell> touching(std::size_t dim) {
    const std::int64_t m = pick(20, 40), top = pick(30, 50);
    std::vector<std::int64_t> lo(dim, 0), hi(dim, top);
    hi[0] = m;
    const LinearCell left = box(lo, hi);
    lo[0] = m;
    hi[0] = m + pick(10, 30);
    const LinearCell right = box(lo, hi);
    std::vector<std::int64_t> elo(dim, 0), ehi(dim, top);
    elo[0] = m - pick(5, 15);
    ehi[0] = m;
    elo[1] = top;
    ehi[1] = top + pick(5, 15);
    const LinearCell edge = box(elo, ehi);
    std::vector<std::int64_t> clo(dim, pick(2, 8)), chi(dim, top - 4);
    clo[0] = m - pick(4, 12);
    chi[0] = m + pick(4, 12);
    return {left, right, edge, box(clo, chi)};
  }

  // Three strips that overlap pairwise in the corners of a triangle and
  // share no interior point: y <= w, x <= w, x + y >= n - w. With
  // `pinch`, n = 3w and the three meet in the one point (w, w).
  std::vector<LinearCell> open_triangle(std::size_t dim, bool pinch) {
    const std::int64_t w = pick(8, 20);
    const std::int64_t n = pinch ? 3 * w : w + pick(2 * w + 1, 3 * w);
    std::vector<std::int64_t> lo(dim, 0), hi(dim, n);
    hi[1] = w;
    const LinearCell bottom = box(lo, hi);
    hi[1] = n;
    hi[0] = w;
    const LinearCell side = box(lo, hi);
    hi[0] = n;
    LinearCell diagonal = box(lo, hi);
    RVec minus(dim);
    minus[0] = Rational(-1);
    minus[1] = Rational(-1);
    diagonal.add(row(std::move(minus), Rational(w - n, 64)));
    return {bottom, side, diagonal};
  }

  // A union2-shaped union whose rows are strict at random.
  std::vector<LinearCell> mixed_strict(std::size_t dim) {
    std::vector<LinearCell> cells;
    for (const LinearCell& base : union2(dim)) {
      LinearCell cell(dim);
      for (const LinearConstraint& c : base.constraints()) {
        cell.add(row(c.coeffs, c.rhs, pick(0, 1) ? LinCmp::kLt : LinCmp::kLe));
      }
      cells.push_back(std::move(cell));
    }
    return cells;
  }

  // `count` cut boxes that all contain the cube [28, 36]^dim (in 64ths),
  // so every subset of them is a clique with a nonzero term.
  std::vector<LinearCell> crowd(std::size_t dim, int count) {
    std::vector<LinearCell> cells;
    for (int i = 0; i < count; ++i) {
      std::vector<std::int64_t> lo(dim), hi(dim);
      std::int64_t far = 0;
      for (std::size_t v = 0; v < dim; ++v) {
        lo[v] = pick(4, 26);
        hi[v] = pick(38, 60);
        far += hi[v];
      }
      LinearCell cell = box(lo, hi);
      const std::int64_t floor = 36 * static_cast<std::int64_t>(dim) + 2;
      cell.add(row(RVec(dim, Rational(1)), Rational(pick(floor, far), 64)));
      cells.push_back(std::move(cell));
    }
    return cells;
  }

 private:
  Xoshiro rng_;
};

std::string describe(const std::vector<LinearCell>& cells) {
  std::string out;
  for (const LinearCell& cell : cells) out += cell.to_string() + "\n";
  return out;
}

// semilinear_volume and the forced sweep agree exactly and the exact path
// did not sweep; returns the volume.
Rational agree(const std::vector<LinearCell>& cells,
               VolumeStats* stats = nullptr) {
  VolumeStats local;
  if (stats == nullptr) stats = &local;
  auto fast = semilinear_volume(cells, stats);
  auto sweep = semilinear_volume_sweep(cells);
  EXPECT_TRUE(fast.is_ok()) << describe(cells);
  EXPECT_TRUE(sweep.is_ok()) << describe(cells);
  if (!fast.is_ok() || !sweep.is_ok()) return Rational(0);
  EXPECT_EQ(fast.value(), sweep.value()) << describe(cells);
  EXPECT_EQ(stats->sweep_calls, 0u) << describe(cells);
  return fast.value();
}

class UnionVsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnionVsSweep, Union2Shaped) {
  UnionGen gen(GetParam());
  EXPECT_GT(agree(gen.union2(2)).sign(), 0);
  EXPECT_GT(agree(gen.union2(3)).sign(), 0);
}

TEST_P(UnionVsSweep, NestedAndIdenticalCells) {
  UnionGen gen(GetParam());
  for (std::size_t dim : {2u, 3u}) {
    const std::vector<LinearCell> cells = gen.nested(dim);
    VolumeStats stats;
    agree(cells, &stats);
    // The inner cell, its copy and the box around it form a triangle
    // whose triple term is the inner cell again: at least 4 singletons,
    // 3 pairs and 1 triple.
    EXPECT_GE(stats.lasserre_calls, 8u) << dim;
  }
}

TEST_P(UnionVsSweep, CellsTouchingAlongAFaceOrEdge) {
  UnionGen gen(GetParam());
  for (std::size_t dim : {2u, 3u}) {
    const std::vector<LinearCell> cells = gen.touching(dim);
    VolumeStats stats;
    agree(cells, &stats);
    // Touching cells share no interior: the only edges join the
    // straddling box to the left and right boxes, so 4 singletons and 2
    // pairs.
    EXPECT_EQ(stats.lasserre_calls, 6u) << dim << "\n" << describe(cells);
  }
}

TEST_P(UnionVsSweep, PairwiseOverlapEmptyTriple) {
  UnionGen gen(GetParam());
  for (std::size_t dim : {2u, 3u}) {
    for (bool pinch : {false, true}) {
      VolumeStats stats;
      agree(gen.open_triangle(dim, pinch), &stats);
      // 3 singletons, 3 pairs, and one zero triple.
      EXPECT_EQ(stats.lasserre_calls, 7u) << dim << " " << pinch;
    }
  }
}

TEST_P(UnionVsSweep, StrictAndNonStrictRows) {
  UnionGen gen(GetParam());
  EXPECT_GT(agree(gen.mixed_strict(2)).sign(), 0);
  EXPECT_GT(agree(gen.mixed_strict(3)).sign(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionVsSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(UnionCliques, ChainVisitsOnlyItsEdges) {
  // Nine boxes in a row, each overlapping its neighbours only: 9
  // singletons and 8 pairs; no other set of them is a clique.
  std::vector<LinearCell> chain;
  for (std::int64_t i = 0; i < 9; ++i) {
    chain.push_back(box({64 * i, 0}, {64 * i + 96, 64}));
  }
  VolumeStats stats;
  EXPECT_EQ(agree(chain, &stats), Rational(19, 2));
  EXPECT_EQ(stats.lasserre_calls, 17u);
}

TEST(UnionCliques, OverBudgetFallsBackToTheSweep) {
  // Nine mutually overlapping cells have 2^9 - 1 = 511 nonzero terms,
  // more than the term budget (256): the sweep answers.
  for (std::uint64_t seed : {21u, 22u}) {
    UnionGen gen(seed);
    const std::vector<LinearCell> cells = gen.crowd(2, 9);
    VolumeStats stats;
    auto fast = semilinear_volume(cells, &stats);
    ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
    EXPECT_EQ(fast.value(), semilinear_volume_sweep(cells).value_or_die());
    EXPECT_GE(stats.sweep_calls, 1u);
    EXPECT_GT(stats.breakpoints, 0u);
    // Eight such cells (255 terms) stay on the exact path.
    VolumeStats within;
    agree(gen.crowd(2, 8), &within);
    EXPECT_EQ(within.lasserre_calls, 255u);
  }
}

TEST(UnionCliques, UnboundedCellIsInvalid) {
  for (std::size_t dim : {2u, 3u}) {
    UnionGen gen(dim);
    std::vector<LinearCell> cells = gen.union2(dim);
    // The slab 0 <= x_1 <= 1 over x_0 >= 0, through the other cells.
    LinearCell slab(dim);
    slab.add(row(axis(dim, 0, Rational(-1)), Rational(0)));
    for (std::size_t v = 1; v < dim; ++v) {
      slab.add(row(axis(dim, v, Rational(-1)), Rational(0)));
      slab.add(row(axis(dim, v, Rational(1)), Rational(1)));
    }
    cells.push_back(slab);
    auto fast = semilinear_volume(cells);
    ASSERT_FALSE(fast.is_ok());
    EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);
    auto sweep = semilinear_volume_sweep(cells);
    ASSERT_FALSE(sweep.is_ok());
    EXPECT_EQ(sweep.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(UnionCliques, TokenExpiringMidEnumerationCancels) {
  // 255 terms in 3-D; the token is cancelled once the first term has
  // charged the meter, and the next term's poll stops the enumeration.
  UnionGen gen(31);
  const std::vector<LinearCell> cells = gen.crowd(3, 8);
  guard::WorkMeter meter(guard::ResourceQuota::unlimited());
  CancelToken token;
  std::thread canceller([&] {
    while (meter.usage().sweep_sections == 0) std::this_thread::yield();
    token.cancel();
  });
  auto v = semilinear_volume(cells, nullptr, &token, &meter);
  canceller.join();
  ASSERT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCancelled);
  EXPECT_GE(meter.usage().sweep_sections, 1u);
  EXPECT_LT(meter.usage().sweep_sections, 255u);
}

TEST(UnionCliques, MeterIsChargedPerTerm) {
  // Two overlapping cells are three terms; a two-term ceiling trips on
  // the third with the sweep_sections quota.
  const std::vector<LinearCell> cells = {box({0, 0}, {64, 64}),
                                         box({32, 32}, {96, 96})};
  guard::ResourceQuota quota = guard::ResourceQuota::unlimited();
  quota.max_sweep_sections = 3;
  guard::WorkMeter enough(quota);
  EXPECT_EQ(semilinear_volume(cells, nullptr, nullptr, &enough).value_or_die(),
            Rational(7, 4));
  EXPECT_EQ(enough.usage().sweep_sections, 3u);
  quota.max_sweep_sections = 2;
  guard::WorkMeter tight(quota);
  auto v = semilinear_volume(cells, nullptr, nullptr, &tight);
  ASSERT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tight.tripped_kind(), guard::QuotaKind::kSweepSections);
}

}  // namespace
}  // namespace cqa
