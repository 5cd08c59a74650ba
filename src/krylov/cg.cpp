#include "krylov/cg.hpp"

#include <stdexcept>

#include "krylov/batch.hpp"

namespace wa::krylov {

SolveResult cg(const sparse::Csr& A, std::span<const double> b,
               std::span<double> x, std::size_t max_iters, double tol) {
  if (b.size() != A.n || x.size() != A.n) {
    throw std::invalid_argument("cg: size mismatch");
  }
  return cg_batch(A, b, x, 1, max_iters, tol).rhs[0];
}

}  // namespace wa::krylov
