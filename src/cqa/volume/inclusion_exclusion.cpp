#include "cqa/volume/inclusion_exclusion.h"

#include "cqa/geometry/polytope_volume.h"

namespace cqa {

Result<Rational> volume_inclusion_exclusion(
    const std::vector<LinearCell>& cells, std::size_t max_cells) {
  if (cells.empty()) return Rational(0);
  const std::size_t k = cells.size();
  if (k > max_cells) {
    return Status::out_of_range(
        "inclusion-exclusion: too many cells (2^k terms)");
  }
  const std::size_t dim = cells[0].dim();
  Rational total;
  for (std::size_t mask = 1; mask < (1u << k); ++mask) {
    LinearCell inter(dim);
    int bits = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (!(mask & (1u << i))) continue;
      ++bits;
      CQA_CHECK(cells[i].dim() == dim);
      for (const auto& c : cells[i].constraints()) inter.add(c);
    }
    // An empty intersection comes back as 0 without a separate
    // feasibility pass.
    auto v = polytope_volume(Polyhedron(inter));
    if (!v.is_ok()) return v;
    if (bits % 2 == 1) {
      total += v.value();
    } else {
      total -= v.value();
    }
  }
  return total;
}

}  // namespace cqa
