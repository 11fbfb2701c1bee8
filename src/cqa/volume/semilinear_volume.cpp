#include "cqa/volume/semilinear_volume.h"

#include <algorithm>
#include <optional>

#include "cqa/guard/fault.h"
#include "cqa/poly/interpolation.h"
#include "cqa/poly/univariate.h"

namespace cqa {

LinearCell drop_var(const LinearCell& cell, std::size_t var) {
  CQA_CHECK(var < cell.dim());
  LinearCell out(cell.dim() - 1);
  for (const auto& c : cell.constraints()) {
    CQA_CHECK(c.coeffs[var].is_zero());
    LinearConstraint nc;
    nc.cmp = c.cmp;
    nc.rhs = c.rhs;
    nc.coeffs.reserve(cell.dim() - 1);
    for (std::size_t k = 0; k < cell.dim(); ++k) {
      if (k != var) nc.coeffs.push_back(c.coeffs[k]);
    }
    out.add(std::move(nc));
  }
  return out;
}

namespace {

// The interior of a full-dimensional cell: every inequality made strict.
// Its constant rows are truths (0 <= 0 among them, false once strict) and
// are dropped; so are its equalities, all of them constant.
std::vector<LinearConstraint> interior_rows(const LinearCell& cell) {
  std::vector<LinearConstraint> strict;
  strict.reserve(cell.constraints().size());
  for (const auto& c : cell.constraints()) {
    if (c.is_constant() || c.cmp == LinCmp::kEq) continue;
    LinearConstraint s = c;
    s.cmp = LinCmp::kLt;
    strict.push_back(std::move(s));
  }
  return strict;
}

}  // namespace

bool is_full_dimensional(const LinearCell& cell) {
  for (const auto& c : cell.constraints()) {
    if (c.is_constant() ? !c.constant_truth() : c.cmp == LinCmp::kEq) {
      return false;
    }
  }
  return fm_feasible(interior_rows(cell), cell.dim());
}

namespace {

// Merged total length of the union of 1-D cells.
Result<Rational> interval_union_length(const std::vector<LinearCell>& cells) {
  std::vector<std::pair<Rational, Rational>> intervals;
  for (const auto& cell : cells) {
    AxisInterval iv = cell.project_to_axis(0);
    if (iv.empty) continue;
    if (!iv.lo || !iv.hi) {
      return Status::invalid("semilinear_volume: unbounded 1-D cell");
    }
    if (*iv.lo < *iv.hi) intervals.emplace_back(*iv.lo, *iv.hi);
  }
  std::sort(intervals.begin(), intervals.end());
  Rational total;
  std::size_t i = 0;
  while (i < intervals.size()) {
    Rational lo = intervals[i].first;
    Rational hi = intervals[i].second;
    std::size_t j = i + 1;
    while (j < intervals.size() && intervals[j].first <= hi) {
      hi = std::max(hi, intervals[j].second);
      ++j;
    }
    total += hi - lo;
    i = j;
  }
  return total;
}

// x_0-coordinates of the vertices of the hyperplane arrangement spanned by
// all constraints of all cells, sorted and deduplicated.
std::vector<Rational> arrangement_breakpoints(
    const std::vector<LinearCell>& cells, std::size_t dim) {
  // NOTE: no fm_simplify here -- dominance pruning is only sound within a
  // single conjunction, and these constraints come from different cells of
  // a union.
  std::vector<LinearConstraint> planes;
  for (const auto& cell : cells) {
    for (const auto& c : cell.constraints()) planes.push_back(c.closure());
  }
  // Hyperplanes: dedupe up to sign of the normalized row.
  {
    std::vector<LinearConstraint> uniq;
    for (const auto& c : planes) {
      LinearConstraint n = c.normalized();
      n.cmp = LinCmp::kEq;
      LinearConstraint neg = n;
      neg.coeffs = vec_scale(Rational(-1), n.coeffs);
      neg.rhs = -n.rhs;
      bool seen = false;
      for (const auto& u : uniq) {
        if (u.coeffs == n.coeffs && u.rhs == n.rhs) seen = true;
        if (u.coeffs == neg.coeffs && u.rhs == neg.rhs) seen = true;
        if (seen) break;
      }
      if (!seen && !n.is_constant()) uniq.push_back(std::move(n));
    }
    planes = std::move(uniq);
  }
  const std::size_t m = planes.size();
  std::vector<Rational> xs;
  if (m < dim) return xs;
  std::vector<std::size_t> comb(dim);
  for (std::size_t i = 0; i < dim; ++i) comb[i] = i;
  auto advance = [&]() -> bool {
    std::size_t i = dim;
    while (i-- > 0) {
      if (comb[i] < m - dim + i) {
        ++comb[i];
        for (std::size_t j = i + 1; j < dim; ++j) comb[j] = comb[j - 1] + 1;
        return true;
      }
    }
    return false;
  };
  bool more = true;
  while (more) {
    Matrix a(dim, dim);
    RVec b(dim);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        a.at(r, c) = planes[comb[r]].coeffs[c];
      }
      b[r] = planes[comb[r]].rhs;
    }
    if (!a.determinant().is_zero()) {
      xs.push_back((*solve_square(a, b))[0]);
    }
    more = advance();
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

Result<Rational> volume_union(std::vector<LinearCell> cells, std::size_t dim,
                              VolumeStats* stats, bool force_sweep,
                              const CancelToken* cancel,
                              guard::WorkMeter* meter);

// One section evaluation: volume of { y : (t, y) in union of cells }.
Result<Rational> section_volume(const std::vector<LinearCell>& cells,
                                const Rational& t, std::size_t dim,
                                VolumeStats* stats, bool force_sweep,
                                const CancelToken* cancel,
                                guard::WorkMeter* meter) {
  std::vector<LinearCell> sections;
  for (const auto& cell : cells) {
    LinearCell restricted = cell.restrict_var(0, t);
    if (!fm_feasible(restricted.constraints(), dim)) continue;
    sections.push_back(drop_var(restricted, 0));
  }
  if (stats) ++stats->sections_evaluated;
  if (meter != nullptr && !meter->charge_sweep_section()) {
    return meter->check();
  }
  return volume_union(std::move(sections), dim - 1, stats, force_sweep,
                      cancel, meter);
}

Result<Rational> sweep(const std::vector<LinearCell>& cells, std::size_t dim,
                       VolumeStats* stats, bool force_sweep,
                       const CancelToken* cancel, guard::WorkMeter* meter) {
  if (stats) ++stats->sweep_calls;
  if (dim == 1) return interval_union_length(cells);

  std::vector<Rational> bps = arrangement_breakpoints(cells, dim);
  if (stats) stats->breakpoints += bps.size();
  if (meter != nullptr) {
    // Breakpoint enumeration is C(m, dim) determinant solves; account the
    // materialized breakpoint list before interpolating over it.
    meter->charge_resident_bytes(bps.size() * 32);
    CQA_RETURN_IF_ERROR(meter->check());
  }
  if (bps.size() < 2) {
    // Bounded full-dimensional cells must produce at least two distinct
    // breakpoints; none means the union is empty or degenerate.
    return Rational(0);
  }
  Rational total;
  for (std::size_t i = 0; i + 1 < bps.size(); ++i) {
    const Rational& a = bps[i];
    const Rational& b = bps[i + 1];
    // Section volume g(t) restricted to (a, b) is a polynomial of degree
    // <= dim-1: interpolate from dim exact samples.
    std::vector<std::pair<Rational, Rational>> samples;
    for (const Rational& t : sample_points(a, b, dim)) {
      if (cancel != nullptr) {
        CQA_RETURN_IF_ERROR(cancel->check());
      }
      auto g = section_volume(cells, t, dim, stats, force_sweep, cancel,
                              meter);
      if (!g.is_ok()) return g;
      samples.emplace_back(t, g.value());
    }
    UPoly g = interpolate(samples);
    total += g.integrate(a, b);
  }
  return total;
}

// Inclusion-exclusion terms a union may take before it falls back to the
// sweep. k mutually overlapping cells need 2^k - 1 terms, so this admits
// about eight of them; past it the sweep keeps the cost polynomial in the
// number of cells (Theorem 3).
constexpr std::size_t kTermBudget = 256;

Status unbounded_cell() {
  return Status::invalid(
      "semilinear_volume: unbounded cell (use VOL_I or bound the set)");
}

// One inclusion-exclusion term: a clique of cells (ascending indices) and
// the concatenation of their rows, whose polytope is their intersection.
struct Term {
  std::vector<std::size_t> members;
  LinearCell cell;
};

// Exact union volume by inclusion-exclusion over the cliques of the cells'
// interior-overlap graph. Only a clique can meet in positive measure, and
// a superset of a measure-zero intersection is measure-zero, so only the
// nonzero terms of one level are extended to the next. Each term is one
// polytope_volume; it polls `cancel` and charges `meter` one sweep
// section. nullopt: the union needs more than kTermBudget terms.
std::optional<Result<Rational>> clique_inclusion_exclusion(
    const std::vector<LinearCell>& cells, std::size_t dim,
    VolumeStats* stats, const CancelToken* cancel, guard::WorkMeter* meter) {
  const std::size_t k = cells.size();
  if (k > kTermBudget) return std::nullopt;
  // Every edge is a nonzero pair term, so the edges alone may exceed the
  // budget before any volume is computed.
  std::vector<std::vector<LinearConstraint>> interiors;
  interiors.reserve(k);
  for (const auto& cell : cells) interiors.push_back(interior_rows(cell));
  std::vector<std::vector<bool>> adjacent(k, std::vector<bool>(k, false));
  std::size_t terms = k;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      std::vector<LinearConstraint> both = interiors[i];
      both.insert(both.end(), interiors[j].begin(), interiors[j].end());
      if (!fm_feasible(both, dim)) continue;
      adjacent[i][j] = adjacent[j][i] = true;
      if (++terms > kTermBudget) return std::nullopt;
    }
  }
  std::vector<Term> level;
  for (std::size_t i = 0; i < k; ++i) level.push_back({{i}, cells[i]});
  std::size_t visited = k;
  Rational total;
  for (bool odd = true; !level.empty(); odd = !odd) {
    std::vector<Term> next;
    for (const Term& term : level) {
      if (cancel != nullptr) {
        CQA_RETURN_IF_ERROR(cancel->check());
      }
      if (meter != nullptr && !meter->charge_sweep_section()) {
        return meter->check();
      }
      if (stats) ++stats->lasserre_calls;
      // polytope_volume proves the cell bounded itself and fails only
      // when it is not; a singleton term is the first to meet each cell.
      auto v = polytope_volume(Polyhedron(term.cell));
      if (!v.is_ok()) return unbounded_cell();
      if (v.value().is_zero()) continue;
      if (odd) {
        total += v.value();
      } else {
        total -= v.value();
      }
      for (std::size_t j = term.members.back() + 1; j < k; ++j) {
        if (!std::all_of(term.members.begin(), term.members.end(),
                         [&](std::size_t i) { return adjacent[i][j]; })) {
          continue;
        }
        if (++visited > kTermBudget) return std::nullopt;
        Term wider = term;
        wider.members.push_back(j);
        for (const auto& c : cells[j].constraints()) wider.cell.add(c);
        next.push_back(std::move(wider));
      }
    }
    level = std::move(next);
  }
  return total;
}

Result<Rational> volume_union(std::vector<LinearCell> cells, std::size_t dim,
                              VolumeStats* stats, bool force_sweep,
                              const CancelToken* cancel,
                              guard::WorkMeter* meter) {
  if (cancel != nullptr) {
    CQA_RETURN_IF_ERROR(cancel->check());
  }
  if (guard::fault_fires(guard::FaultSite::kSpuriousCancel)) {
    return Status::cancelled("injected spurious cancellation (sweep)");
  }
  if (meter != nullptr) {
    CQA_RETURN_IF_ERROR(meter->check());
  }
  // Keep only feasible, full-dimensional cells (others have measure 0).
  std::vector<LinearCell> live;
  for (auto& cell : cells) {
    CQA_CHECK(cell.dim() == dim);
    if (!is_full_dimensional(cell)) continue;
    live.push_back(std::move(cell));
  }
  if (live.empty()) return Rational(0);
  if (dim == 0) return Rational(1);
  // The 1-D sweep is a plain interval merge, cheaper than any term.
  if (!force_sweep && dim > 1) {
    auto v = clique_inclusion_exclusion(live, dim, stats, cancel, meter);
    if (v) return *std::move(v);
  }
  for (const auto& cell : live) {
    if (!cell.is_bounded()) return unbounded_cell();
  }
  return sweep(live, dim, stats, force_sweep, cancel, meter);
}

}  // namespace

Result<Rational> semilinear_volume(const std::vector<LinearCell>& cells,
                                   VolumeStats* stats,
                                   const CancelToken* cancel,
                                   guard::WorkMeter* meter) {
  if (cells.empty()) return Rational(0);
  return volume_union(cells, cells[0].dim(), stats, /*force_sweep=*/false,
                      cancel, meter);
}

Result<Rational> semilinear_volume_sweep(const std::vector<LinearCell>& cells,
                                         VolumeStats* stats,
                                         const CancelToken* cancel,
                                         guard::WorkMeter* meter) {
  if (cells.empty()) return Rational(0);
  return volume_union(cells, cells[0].dim(), stats, /*force_sweep=*/true,
                      cancel, meter);
}

Result<Rational> formula_volume(const FormulaPtr& f, std::size_t dim) {
  auto cells = formula_to_cells(f, dim);
  if (!cells.is_ok()) return cells.status();
  return semilinear_volume(cells.value());
}

Result<Rational> formula_volume_I(const FormulaPtr& f, std::size_t dim) {
  auto cells = formula_to_cells(f, dim);
  if (!cells.is_ok()) return cells.status();
  std::vector<LinearCell> boxed;
  boxed.reserve(cells.value().size());
  for (const auto& cell : cells.value()) {
    boxed.push_back(cell.intersect_box(Rational(0), Rational(1)));
  }
  return semilinear_volume(boxed);
}

}  // namespace cqa
