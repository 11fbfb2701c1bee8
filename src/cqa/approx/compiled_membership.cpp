#include "cqa/approx/compiled_membership.h"

#include <algorithm>
#include <bit>
#include <string>

#include "cqa/guard/fault.h"

namespace cqa {

// -------------------------------------------------------------------------
// Lowering

Result<std::uint32_t> CompiledMembership::lower(
    const FormulaPtr& f,
    const std::map<std::size_t, std::uint32_t>& var_col) {
  using Kind = Formula::Kind;
  Node n;
  switch (f->kind()) {
    case Kind::kTrue:
      n.op = Node::Op::kTrue;
      break;
    case Kind::kFalse:
      n.op = Node::Op::kFalse;
      break;
    case Kind::kAtom: {
      const Polynomial& p = f->poly();
      Atom a;
      a.term_begin = static_cast<std::uint32_t>(terms_.size());
      // Terms in map order, factors in ascending variable index, one
      // factor per exponent unit: Polynomial::eval_double's exact
      // operation sequence, laid out flat.
      for (const auto& [m, c] : p.terms()) {
        Term t;
        t.coeff = c.to_double();
        t.factor_begin = static_cast<std::uint32_t>(factors_.size());
        t.fold_end = t.factor_begin;
        bool seen_element = false;
        for (std::size_t i = 0; i < m.size(); ++i) {
          if (m[i] == 0) continue;
          std::uint32_t col;
          auto it = var_col.find(i);
          if (it != var_col.end()) {
            col = it->second;
            seen_element = true;
          } else {
            auto s = std::find(scalar_vars_.begin(), scalar_vars_.end(), i);
            col = static_cast<std::uint32_t>(
                element_vars_.size() +
                static_cast<std::size_t>(s - scalar_vars_.begin()));
            if (s == scalar_vars_.end()) scalar_vars_.push_back(i);
          }
          factors_.insert(factors_.end(), m[i], col);
          if (!seen_element) {
            t.fold_end = static_cast<std::uint32_t>(factors_.size());
          }
        }
        t.factor_end = static_cast<std::uint32_t>(factors_.size());
        terms_.push_back(t);
      }
      a.term_end = static_cast<std::uint32_t>(terms_.size());
      a.holds[0] = op_holds(f->op(), -1);
      a.holds[1] = op_holds(f->op(), 0);
      a.holds[2] = op_holds(f->op(), 1);
      if (p.is_linear()) ++linear_atoms_;
      n.op = Node::Op::kAtom;
      n.a = static_cast<std::uint32_t>(atoms_.size());
      atoms_.push_back(a);
      break;
    }
    case Kind::kPredicate:
      // Same error the interpreter raises per point, surfaced once at
      // compile time (inlined formulas are predicate-free).
      return Status::invalid("predicate " + f->pred_name() +
                             " evaluated without an oracle");
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<std::uint32_t> kids;
      kids.reserve(f->children().size());
      for (const FormulaPtr& c : f->children()) {
        auto r = lower(c, var_col);
        if (!r.is_ok()) return r.status();
        kids.push_back(r.value());
      }
      n.op = f->kind() == Kind::kNot
                 ? Node::Op::kNot
                 : (f->kind() == Kind::kAnd ? Node::Op::kAnd : Node::Op::kOr);
      n.a = static_cast<std::uint32_t>(child_ids_.size());
      child_ids_.insert(child_ids_.end(), kids.begin(), kids.end());
      n.b = static_cast<std::uint32_t>(child_ids_.size());
      break;
    }
    case Kind::kExists:
    case Kind::kForall:
      return Status::unsupported(
          "Monte-Carlo membership requires a quantifier-free query "
          "(run linear QE first)");
  }
  nodes_.push_back(n);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

Result<CompiledMembership> CompiledMembership::compile(
    const FormulaPtr& inlined, std::vector<std::size_t> element_vars,
    guard::WorkMeter* meter) {
  if (!inlined->is_quantifier_free()) {
    return Status::unsupported(
        "Monte-Carlo membership requires a quantifier-free query "
        "(run linear QE first)");
  }
  CompiledMembership cm;
  cm.element_vars_ = std::move(element_vars);
  int mv = inlined->max_var();
  for (std::size_t v : cm.element_vars_) {
    mv = std::max(mv, static_cast<int>(v));
  }
  cm.point_size_ = static_cast<std::size_t>(mv + 1);
  // Element coordinates own columns 0..dim-1; when element_vars repeats
  // a variable the later slot wins, matching the interpreter's per-point
  // rebinding loop (last write wins).
  std::map<std::size_t, std::uint32_t> var_col;
  for (std::size_t j = 0; j < cm.element_vars_.size(); ++j) {
    var_col[cm.element_vars_[j]] = static_cast<std::uint32_t>(j);
  }
  auto root = cm.lower(inlined, var_col);
  if (!root.is_ok()) return root.status();
  cm.root_ = root.value();

  // Guard hooks: plan compilation is metered work. The chaos fault
  // models an exhausted compile; both surface as kResourceExhausted so
  // the session degrades down the ladder instead of erroring out.
  if (guard::fault_fires(guard::FaultSite::kCompileMembership)) {
    return Status::resource_exhausted("injected compile-membership fault");
  }
  if (meter != nullptr) {
    const std::size_t bytes =
        cm.atoms_.size() * sizeof(Atom) + cm.terms_.size() * sizeof(Term) +
        cm.factors_.size() * sizeof(std::uint32_t) +
        cm.nodes_.size() * sizeof(Node) +
        cm.child_ids_.size() * sizeof(std::uint32_t) +
        (cm.element_vars_.size() + cm.scalar_vars_.size()) * kBlockPoints *
            sizeof(double);
    // The MC rung is the ladder's fallback for an already-tripped meter
    // (sampling is O(1)-memory per point), so a pre-existing trip must
    // not veto compilation; only a trip *caused by this charge* -- the
    // plan itself blowing the resident-bytes quota -- fails compile.
    const bool tripped_before = meter->tripped();
    meter->charge_resident_bytes(bytes);
    if (!tripped_before) CQA_RETURN_IF_ERROR(meter->check());
  }
  return cm;
}

// -------------------------------------------------------------------------
// Binding

Result<CompiledMembership::Binding> CompiledMembership::bind(
    const std::map<std::size_t, Rational>& params) const {
  for (const auto& [v, val] : params) {
    (void)val;
    if (v >= point_size_) {
      return Status::invalid("mc membership: parameter index x" +
                             std::to_string(v) +
                             " outside the formula's variable range");
    }
  }
  Binding b;
  // A non-element variable reads as params[var] in the interpreter's
  // point scratch, 0.0 when unbound.
  b.scalar.reserve(scalar_vars_.size());
  for (std::size_t v : scalar_vars_) {
    auto it = params.find(v);
    b.scalar.push_back(it == params.end() ? 0.0 : it->second.to_double());
  }
  // Leading broadcast factors multiply into the coefficient here, in
  // the order the interpreter multiplies them per point.
  const std::size_t dim = element_vars_.size();
  b.coeff.reserve(terms_.size());
  for (const Term& t : terms_) {
    double c = t.coeff;
    for (std::uint32_t u = t.factor_begin; u < t.fold_end; ++u) {
      c *= b.scalar[factors_[u] - dim];
    }
    b.coeff.push_back(c);
  }
  return b;
}

// -------------------------------------------------------------------------
// Evaluation

struct CompiledMembership::Scratch {
  // (dim + |scalar_vars_|) columns x kBlockPoints: element coordinates,
  // then one broadcast column per non-element variable.
  std::vector<double> cols;
  double acc[kBlockPoints] = {};  // one atom accumulator per lane
  double tmp[kBlockPoints] = {};  // one term product per lane
};

namespace {

constexpr std::size_t kLanes = CompiledMembership::kBlockPoints;

// The lane passes of one term, restrict-qualified so each vectorizes
// without alias checks. Per lane they keep the interpreter's operation
// order: t = c; t *= x (once per factor); out += t.
void lanes_add(double* __restrict acc, double c) {
  for (std::size_t i = 0; i < kLanes; ++i) acc[i] += c;
}
void lanes_mul_add(double* __restrict acc, double c,
                   const double* __restrict x) {
  for (std::size_t i = 0; i < kLanes; ++i) {
    double t = c;
    t *= x[i];
    acc[i] += t;
  }
}
void lanes_mul_set(double* __restrict tmp, double c,
                   const double* __restrict x) {
  for (std::size_t i = 0; i < kLanes; ++i) {
    double t = c;
    t *= x[i];
    tmp[i] = t;
  }
}
void lanes_mul(double* __restrict tmp, const double* __restrict x) {
  for (std::size_t i = 0; i < kLanes; ++i) tmp[i] *= x[i];
}
void lanes_mul_acc(double* __restrict acc, const double* __restrict tmp,
                   const double* __restrict x) {
  for (std::size_t i = 0; i < kLanes; ++i) {
    double t = tmp[i];
    t *= x[i];
    acc[i] += t;
  }
}

}  // namespace

std::uint64_t CompiledMembership::eval_atom(const Atom& a,
                                            const Binding& binding,
                                            Scratch* scratch) const {
  // Every lane of the block is computed (lanes past a short block's end
  // hold stale but harmless coordinates) so the passes have a fixed
  // trip count; the caller masks the result down to the live lanes.
  double* acc = scratch->acc;
  double* tmp = scratch->tmp;
  const double* cols = scratch->cols.data();
  auto col = [cols](std::uint32_t c) {
    return cols + static_cast<std::size_t>(c) * kLanes;
  };
  std::uint32_t k = a.term_begin;
  // out = 0.0, then out += term per term. A leading fully folded term
  // (the constant, first in map order) is one scalar add, not a pass.
  double init = 0.0;
  if (k < a.term_end && terms_[k].fold_end == terms_[k].factor_end) {
    init += binding.coeff[k];
    ++k;
  }
  std::fill_n(acc, kLanes, init);
  for (; k < a.term_end; ++k) {
    const Term& t = terms_[k];
    const double c = binding.coeff[k];
    const std::uint32_t* f = factors_.data() + t.fold_end;
    const std::uint32_t* end = factors_.data() + t.factor_end;
    // One pass per factor: the first fused with the coefficient, the
    // last with the accumulation.
    if (f == end) {
      lanes_add(acc, c);
    } else if (f + 1 == end) {
      lanes_mul_add(acc, c, col(*f));
    } else {
      lanes_mul_set(tmp, c, col(*f++));
      for (; f + 1 < end; ++f) lanes_mul(tmp, col(*f));
      lanes_mul_acc(acc, tmp, col(*f));
    }
  }
  // Sign masks with the interpreter's convention: NaN fails both
  // compares, so it lands in neither mask and reads as sign 0.
  std::uint64_t lt = 0;
  std::uint64_t gt = 0;
  for (std::size_t i = 0; i < kLanes; ++i) {
    lt |= static_cast<std::uint64_t>(acc[i] < 0) << i;
    gt |= static_cast<std::uint64_t>(acc[i] > 0) << i;
  }
  return (a.holds[0] ? lt : 0) | (a.holds[1] ? ~(lt | gt) : 0) |
         (a.holds[2] ? gt : 0);
}

std::uint64_t CompiledMembership::eval_mask(std::uint32_t node,
                                            std::uint64_t active,
                                            const Binding& binding,
                                            Scratch* scratch) const {
  if (active == 0) return 0;
  const Node& n = nodes_[node];
  switch (n.op) {
    case Node::Op::kTrue:
      return active;
    case Node::Op::kFalse:
      return 0;
    case Node::Op::kAtom:
      return eval_atom(atoms_[n.a], binding, scratch) & active;
    case Node::Op::kNot:
      return active &
             ~eval_mask(child_ids_[n.a], active, binding, scratch);
    case Node::Op::kAnd: {
      // Lanes falsified by an earlier child are dead for the rest of the
      // conjunction: block-level short-circuit, pointwise identical to
      // the interpreter's early return.
      std::uint64_t m = active;
      for (std::uint32_t k = n.a; k < n.b && m != 0; ++k) {
        m = eval_mask(child_ids_[k], m, binding, scratch);
      }
      return m;
    }
    case Node::Op::kOr: {
      std::uint64_t acc = 0;
      std::uint64_t rem = active;
      for (std::uint32_t k = n.a; k < n.b && rem != 0; ++k) {
        acc |= eval_mask(child_ids_[k], rem, binding, scratch);
        rem = active & ~acc;
      }
      return acc;
    }
  }
  return 0;
}

Result<std::size_t> CompiledMembership::count_blocks(
    const Binding& binding, const std::vector<double>* aos_points,
    Xoshiro* rng, std::size_t count, const CancelToken* cancel) const {
  const std::size_t dim = element_vars_.size();
  // Per-thread reusable buffers: workers touch no shared mutable state
  // and a chunk allocates nothing once its thread's scratch is warm.
  static thread_local Scratch s;
  const std::size_t ncols = dim + scalar_vars_.size();
  if (s.cols.size() < ncols * kBlockPoints) {
    s.cols.resize(ncols * kBlockPoints, 0.0);
  }
  // Broadcast columns carry this call's binding; the block loop below
  // only ever rewrites the element columns.
  for (std::size_t k = 0; k < scalar_vars_.size(); ++k) {
    std::fill_n(s.cols.begin() +
                    static_cast<std::ptrdiff_t>((dim + k) * kBlockPoints),
                kBlockPoints, binding.scalar[k]);
  }
  static_assert(kCancelPollStride % CompiledMembership::kBlockPoints == 0,
                "poll stride must land on block boundaries");
  std::size_t hits = 0;
  for (std::size_t base = 0; base < count; base += kBlockPoints) {
    // Poll at the exact point indices the interpreter kernel polls.
    if (cancel != nullptr && base % kCancelPollStride == 0) {
      CQA_RETURN_IF_ERROR(cancel->check());
    }
    const std::size_t npts = std::min(kBlockPoints, count - base);
    if (aos_points != nullptr) {
      for (std::size_t i = 0; i < npts; ++i) {
        const std::vector<double>& y = aos_points[base + i];
        for (std::size_t j = 0; j < dim; ++j) {
          s.cols[j * kBlockPoints + i] = y[j];
        }
      }
    } else {
      // Same draw sequence as Xoshiro::point per point: coordinates in
      // index order, points consecutively.
      for (std::size_t i = 0; i < npts; ++i) {
        for (std::size_t j = 0; j < dim; ++j) {
          s.cols[j * kBlockPoints + i] = rng->uniform();
        }
      }
    }
    const std::uint64_t full =
        npts == kBlockPoints ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << npts) - 1);
    hits += static_cast<std::size_t>(
        std::popcount(eval_mask(root_, full, binding, &s)));
  }
  return hits;
}

Result<std::size_t> CompiledMembership::count_hits(
    const Binding& binding, const std::vector<double>* points,
    std::size_t count, const CancelToken* cancel) const {
  return count_blocks(binding, points, nullptr, count, cancel);
}

Result<std::size_t> CompiledMembership::count_hits_stream(
    const Binding& binding, Xoshiro* rng, std::size_t count,
    const CancelToken* cancel) const {
  return count_blocks(binding, nullptr, rng, count, cancel);
}

}  // namespace cqa
