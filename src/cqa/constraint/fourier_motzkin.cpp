#include "cqa/constraint/fourier_motzkin.h"

#include <algorithm>
#include <set>

#include "cqa/arith/arena.h"

namespace cqa {

namespace {

// Orders constraints for set-based dedup.
struct ConstraintLess {
  bool operator()(const LinearConstraint& a, const LinearConstraint& b) const {
    if (a.cmp != b.cmp) return static_cast<int>(a.cmp) < static_cast<int>(b.cmp);
    if (a.rhs != b.rhs) return a.rhs < b.rhs;
    if (a.coeffs.size() != b.coeffs.size()) {
      return a.coeffs.size() < b.coeffs.size();
    }
    for (std::size_t i = 0; i < a.coeffs.size(); ++i) {
      if (a.coeffs[i] != b.coeffs[i]) return a.coeffs[i] < b.coeffs[i];
    }
    return false;
  }
};

}  // namespace

std::vector<LinearConstraint> fm_simplify(
    const std::vector<LinearConstraint>& cs) {
  // Canonicalize, dedupe, and drop rows dominated by an identical-LHS row.
  std::set<LinearConstraint, ConstraintLess> seen;
  std::vector<LinearConstraint> rows;
  for (const auto& c : cs) {
    LinearConstraint n = c.normalized();
    if (n.is_constant() && n.constant_truth()) continue;  // trivially true
    if (seen.insert(n).second) rows.push_back(std::move(n));
  }
  // Dominance on equal coefficient vectors:
  //   a.x <  r1 dominates a.x <  r2 when r1 <= r2;
  //   a.x <= r1 dominates a.x <= r2 when r1 <= r2;
  //   a.x <  r1 dominates a.x <= r2 when r1 <= r2;
  //   a.x <= r1 dominates a.x <  r2 when r1 <  r2.
  // Dominance is transitive and only relates rows with identical LHS, so
  // instead of the quadratic pairwise sweep, group rows by coefficient
  // vector and keep each group's minimal elements: the tightest <= row
  // survives iff every < row is strictly looser, and the tightest < row
  // survives iff no <= row is at least as tight. (Exact duplicates were
  // already removed by the set above.)
  std::vector<bool> dead(rows.size(), false);
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) order[i] = i;
  auto coeffs_less = [&rows](std::size_t a, std::size_t b) {
    if (rows[a].coeffs.size() != rows[b].coeffs.size()) {
      return rows[a].coeffs.size() < rows[b].coeffs.size();
    }
    for (std::size_t i = 0; i < rows[a].coeffs.size(); ++i) {
      const int c = rows[a].coeffs[i].cmp(rows[b].coeffs[i]);
      if (c != 0) return c < 0;
    }
    return false;
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return coeffs_less(a, b);
  });
  std::size_t g0 = 0;
  while (g0 < order.size()) {
    std::size_t g1 = g0 + 1;
    while (g1 < order.size() && !coeffs_less(order[g0], order[g1])) ++g1;
    // Group [g0, g1): identical coefficient vectors.
    bool have_le = false, have_lt = false;
    std::size_t best_le = 0, best_lt = 0;
    for (std::size_t k = g0; k < g1; ++k) {
      const std::size_t i = order[k];
      if (rows[i].cmp == LinCmp::kLe) {
        if (!have_le || rows[i].rhs < rows[best_le].rhs) best_le = i;
        have_le = true;
      } else if (rows[i].cmp == LinCmp::kLt) {
        if (!have_lt || rows[i].rhs < rows[best_lt].rhs) best_lt = i;
        have_lt = true;
      }
    }
    for (std::size_t k = g0; k < g1; ++k) {
      const std::size_t i = order[k];
      if (rows[i].cmp == LinCmp::kEq) continue;
      if (rows[i].cmp == LinCmp::kLe) {
        dead[i] = i != best_le ||
                  (have_lt && rows[best_lt].rhs <= rows[i].rhs);
      } else {
        dead[i] = i != best_lt || (have_le && rows[best_le].rhs < rows[i].rhs);
      }
    }
    g0 = g1;
  }
  std::vector<LinearConstraint> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!dead[i]) out.push_back(std::move(rows[i]));
  }
  return out;
}

std::vector<LinearConstraint> fm_eliminate(
    const std::vector<LinearConstraint>& cs, std::size_t var,
    guard::WorkMeter* meter) {
  // One elimination = one arena lifetime: the combination loop churns
  // transient multi-limb rationals; whatever heap nodes it pools beyond
  // the retained working set are bulk-freed when the scope closes.
  arith::ArenaScope arena_scope;
  // Pass 1: if an equality pivots on var, substitute it everywhere.
  for (std::size_t k = 0; k < cs.size(); ++k) {
    const LinearConstraint& eq = cs[k];
    if (eq.cmp != LinCmp::kEq || var >= eq.dim() || eq.coeffs[var].is_zero()) {
      continue;
    }
    // var = (rhs - sum_{i != var} a_i x_i) / a_var
    const Rational inv = eq.coeffs[var].inverse();
    std::vector<LinearConstraint> out;
    out.reserve(cs.size() - 1);
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (j == k) continue;
      LinearConstraint c = cs[j];
      if (var < c.dim() && !c.coeffs[var].is_zero()) {
        const Rational f = c.coeffs[var] * inv;
        for (std::size_t i = 0; i < c.dim(); ++i) {
          if (i == var) continue;
          Rational e = i < eq.dim() ? eq.coeffs[i] : Rational();
          c.coeffs[i] -= f * e;
        }
        c.rhs -= f * eq.rhs;
        c.coeffs[var] = Rational();
      }
      out.push_back(std::move(c));
    }
    return fm_simplify(out);
  }

  // Pass 2: classic FM on inequalities.
  std::vector<LinearConstraint> uppers, lowers, rest;
  for (const auto& c : cs) {
    Rational a = var < c.dim() ? c.coeffs[var] : Rational();
    if (a.is_zero()) {
      rest.push_back(c);
    } else if (a.sign() > 0) {
      uppers.push_back(c);
    } else {
      lowers.push_back(c);
    }
  }
  for (const auto& lo : lowers) {
    if (guard::meter_tripped(meter)) break;
    for (const auto& up : uppers) {
      if (meter != nullptr && !meter->charge_fm_rows(rest.size() + 1)) break;
      // lo: a_l x_var + L <= r_l with a_l < 0  =>  x_var >= (r_l - L)/a_l
      // up: a_u x_var + U <= r_u with a_u > 0  =>  x_var <= (r_u - U)/a_u
      // Combine: a_u * lo - a_l * up eliminates x_var with positive scales
      // (-a_l > 0 and a_u > 0).
      const Rational su = up.coeffs[var];   // > 0
      const Rational sl = -lo.coeffs[var];  // > 0
      LinearConstraint c;
      const std::size_t dim = std::max(lo.dim(), up.dim());
      c.coeffs.assign(dim, Rational());
      for (std::size_t i = 0; i < dim; ++i) {
        Rational cl = i < lo.dim() ? lo.coeffs[i] : Rational();
        Rational cu = i < up.dim() ? up.coeffs[i] : Rational();
        c.coeffs[i] = su * cl + sl * cu;
      }
      c.coeffs[var] = Rational();
      c.rhs = su * lo.rhs + sl * up.rhs;
      const bool strict =
          lo.cmp == LinCmp::kLt || up.cmp == LinCmp::kLt;
      c.cmp = strict ? LinCmp::kLt : LinCmp::kLe;
      rest.push_back(std::move(c));
    }
  }
  // Tripped: skip the O(n^2) simplify; the caller discards the result.
  if (guard::meter_tripped(meter)) return rest;
  return fm_simplify(rest);
}

bool fm_feasible(const std::vector<LinearConstraint>& cs, std::size_t dim) {
  std::vector<LinearConstraint> cur = fm_simplify(cs);
  for (std::size_t v = dim; v-- > 0;) {
    for (const auto& c : cur) {
      if (c.is_constant() && !c.constant_truth()) return false;
    }
    cur = fm_eliminate(cur, v);
  }
  for (const auto& c : cur) {
    if (!c.constant_truth()) return false;
  }
  return true;
}

bool fm_bounded(const std::vector<LinearConstraint>& cs, std::size_t dim) {
  std::vector<LinearConstraint> cone;
  cone.reserve(cs.size());
  for (const auto& c : cs) {
    LinearConstraint h;
    h.coeffs = c.coeffs;
    h.coeffs.resize(dim);
    h.cmp = c.cmp == LinCmp::kEq ? LinCmp::kEq : LinCmp::kLe;
    cone.push_back(std::move(h));
  }
  for (std::size_t v = 0; v < dim; ++v) {
    // The rows mention d_v..d_{dim-1} only; project the cone on d_v.
    std::vector<LinearConstraint> proj = fm_simplify(cone);
    for (std::size_t u = dim; u-- > v + 1;) proj = fm_eliminate(proj, u);
    bool below = false, above = false;  // d_v >= 0, d_v <= 0 derived
    for (const auto& c : proj) {
      const int s = c.coeffs[v].sign();
      if (s == 0) continue;
      if (c.cmp == LinCmp::kEq || s > 0) above = true;
      if (c.cmp == LinCmp::kEq || s < 0) below = true;
    }
    if (!below || !above) return !fm_feasible(cs, dim);
    for (auto& c : cone) c.coeffs[v] = Rational();
  }
  return true;
}

namespace {

// Bounds on x_var from constraints in which every other coefficient is 0.
AxisInterval interval_from_ground(const std::vector<LinearConstraint>& cs,
                                  std::size_t var) {
  AxisInterval iv;
  for (const auto& c : cs) {
    bool pure = true;
    for (std::size_t i = 0; i < c.dim(); ++i) {
      if (i != var && !c.coeffs[i].is_zero()) pure = false;
    }
    if (!pure) continue;
    Rational a = var < c.dim() ? c.coeffs[var] : Rational();
    if (a.is_zero()) {
      if (!c.constant_truth()) iv.empty = true;
      continue;
    }
    Rational bound = c.rhs / a;
    if (c.cmp == LinCmp::kEq) {
      if ((!iv.lo || *iv.lo < bound || (*iv.lo == bound && !iv.lo_strict))) {
        iv.lo = bound;
        iv.lo_strict = false;
      } else if (*iv.lo > bound) {
        iv.empty = true;
      }
      if ((!iv.hi || *iv.hi > bound || (*iv.hi == bound && !iv.hi_strict))) {
        iv.hi = bound;
        iv.hi_strict = false;
      } else if (*iv.hi < bound) {
        iv.empty = true;
      }
      continue;
    }
    const bool strict = c.cmp == LinCmp::kLt;
    if (a.sign() > 0) {
      // x <=(<) bound
      if (!iv.hi || bound < *iv.hi || (bound == *iv.hi && strict)) {
        iv.hi = bound;
        iv.hi_strict = strict;
      }
    } else {
      // x >=(>) bound
      if (!iv.lo || bound > *iv.lo || (bound == *iv.lo && strict)) {
        iv.lo = bound;
        iv.lo_strict = strict;
      }
    }
  }
  if (iv.lo && iv.hi) {
    if (*iv.lo > *iv.hi ||
        (*iv.lo == *iv.hi && (iv.lo_strict || iv.hi_strict))) {
      iv.empty = true;
    }
  }
  return iv;
}

Rational pick_in_interval(const AxisInterval& iv) {
  CQA_CHECK(!iv.empty);
  if (iv.lo && iv.hi) {
    if (*iv.lo == *iv.hi) return *iv.lo;
    return Rational::mid(*iv.lo, *iv.hi);
  }
  if (iv.lo) return *iv.lo + Rational(1);
  if (iv.hi) return *iv.hi - Rational(1);
  return Rational(0);
}

}  // namespace

AxisInterval fm_project_to_axis(const std::vector<LinearConstraint>& cs,
                                std::size_t var, std::size_t dim) {
  std::vector<LinearConstraint> cur = fm_simplify(cs);
  for (std::size_t v = dim; v-- > 0;) {
    if (v == var) continue;
    cur = fm_eliminate(cur, v);
  }
  AxisInterval iv = interval_from_ground(cur, var);
  for (const auto& c : cur) {
    if (c.is_constant() && !c.constant_truth()) iv.empty = true;
  }
  return iv;
}

std::optional<RVec> fm_sample_point(const std::vector<LinearConstraint>& cs,
                                    std::size_t dim) {
  // Eliminate variables back-to-front, keeping each level's constraint
  // system; then assign values front-to-back by substitution.
  std::vector<std::vector<LinearConstraint>> levels;  // levels[v]: only x_0..x_v
  levels.resize(dim + 1);
  levels[dim] = fm_simplify(cs);
  for (std::size_t v = dim; v-- > 0;) {
    levels[v] = fm_eliminate(levels[v + 1], v);
  }
  for (const auto& c : levels[0]) {
    if (!c.constant_truth()) return std::nullopt;
  }
  RVec point(dim);
  for (std::size_t v = 0; v < dim; ++v) {
    // Substitute already-chosen x_0..x_{v-1} into level v+1's system and
    // read off the interval for x_v.
    std::vector<LinearConstraint> ground;
    for (const auto& c : levels[v + 1]) {
      LinearConstraint g = c;
      for (std::size_t i = 0; i < v && i < g.dim(); ++i) {
        if (g.coeffs[i].is_zero()) continue;
        g.rhs -= g.coeffs[i] * point[i];
        g.coeffs[i] = Rational();
      }
      ground.push_back(std::move(g));
    }
    AxisInterval iv = interval_from_ground(ground, v);
    if (iv.empty) return std::nullopt;  // defensive; should not happen
    Rational value = pick_in_interval(iv);
    // Respect strict bounds when lo == pick or hi == pick.
    if (iv.lo && value == *iv.lo && iv.lo_strict) {
      if (iv.hi) {
        value = Rational::mid(*iv.lo, *iv.hi);
      } else {
        value = *iv.lo + Rational(1);
      }
    }
    if (iv.hi && value == *iv.hi && iv.hi_strict) {
      if (iv.lo) {
        value = Rational::mid(*iv.lo, *iv.hi);
      } else {
        value = *iv.hi - Rational(1);
      }
    }
    point[v] = value;
  }
  // Exact verification (FM is complete, but be defensive about strictness).
  for (const auto& c : cs) {
    if (!c.satisfied_by(point)) return std::nullopt;
  }
  return point;
}

}  // namespace cqa
