#include "krylov/cacg.hpp"

#include <stdexcept>

#include "krylov/batch.hpp"

namespace wa::krylov {

SolveResult ca_cg(const sparse::Csr& A, std::span<const double> b,
                  std::span<double> x, const CaCgOptions& opt) {
  if (b.size() != A.n || x.size() != A.n) {
    throw std::invalid_argument("ca_cg: size mismatch");
  }
  return ca_cg_batch(A, b, x, 1, opt).rhs[0];
}

}  // namespace wa::krylov
