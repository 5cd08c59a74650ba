#include "core/matmul_explicit.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "core/block_schedule.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::core {

namespace {

using linalg::ConstMatrixView;
using linalg::MatrixView;

/// One-slot block cache: tracks which block of one operand currently
/// resides in fast memory and moves blocks through the hierarchy when
/// the wanted block changes.  Read-only operands end residencies with
/// a discard (D2); the output operand ends with a store (D1).
class BlockSlot {
 public:
  BlockSlot(memsim::Hierarchy& h, std::size_t level, bool writeback)
      : h_(&h), level_(level), writeback_(writeback) {}

  /// Make block (bi, bj) of @p words resident; returns true if it had
  /// to be (re)loaded.
  bool want(std::size_t bi, std::size_t bj, std::size_t words) {
    if (cur_ && cur_->first == bi && cur_->second == bj) return false;
    release();
    h_->load(level_, words);
    cur_ = {bi, bj};
    words_ = words;
    return true;
  }

  /// End the current residency (store if writeback, else discard).
  void release() {
    if (!cur_) return;
    if (writeback_) {
      h_->store(level_, words_);
    } else {
      h_->discard(level_, words_);
    }
    cur_.reset();
  }

  ~BlockSlot() { release(); }
  BlockSlot(const BlockSlot&) = delete;
  BlockSlot& operator=(const BlockSlot&) = delete;

 private:
  memsim::Hierarchy* h_;
  std::size_t level_;
  bool writeback_;
  std::optional<std::pair<std::size_t, std::size_t>> cur_;
  std::size_t words_ = 0;
};

/// The explicit memory model of the matmul block schedule: level t
/// stages one C, one A and one B block slot in hierarchy level t; the
/// leaf is the local gemm kernel plus its flop charge.
struct ExplicitMatmul {
  MatrixView<double> C;
  ConstMatrixView<double> A, B;
  memsim::Hierarchy& h;
  double alpha;
  bool b_transposed;

  struct Stage {
    BlockSlot a, b, c;
    void operator()(BlockIndex ix, const MatmulBlock& s) {
      c.want(ix.i, ix.j, s.m * s.l);
      a.want(ix.i, ix.k, s.m * s.n);
      b.want(ix.k, ix.j, s.n * s.l);
    }
  };

  // Slots release on scope exit: the last C block is stored, A and B
  // are discarded.
  Stage stage(std::size_t t) {
    return {BlockSlot(h, t, /*writeback=*/false),
            BlockSlot(h, t, /*writeback=*/false),
            BlockSlot(h, t, /*writeback=*/true)};
  }

  void leaf(const MatmulBlock& e) {
    const auto c = C.block(e.i0, e.j0, e.m, e.l);
    const auto a = A.block(e.i0, e.k0, e.m, e.n);
    const linalg::LocalKernels& kern = linalg::active_kernels();
    if (b_transposed) {
      kern.gemm_acc_bt(c, a, B.block(e.j0, e.k0, e.l, e.n), alpha);
    } else {
      kern.gemm_acc(c, a, B.block(e.k0, e.j0, e.n, e.l), alpha);
    }
    h.flops(2ull * e.m * e.n * e.l);
  }
};

}  // namespace

void blocked_matmul_multilevel_at(MatrixView<double> C,
                                  ConstMatrixView<double> A,
                                  ConstMatrixView<double> B,
                                  std::span<const std::size_t> block_sizes,
                                  std::span<const LoopOrder> orders,
                                  memsim::Hierarchy& h, double alpha,
                                  bool b_transposed) {
  ExplicitMatmul model{C, A, B, h, alpha, b_transposed};
  matmul_schedule(model, MatmulBlock{0, 0, 0, C.rows(), A.cols(), C.cols()},
                  block_sizes, orders);
}

void blocked_matmul_explicit(MatrixView<double> C, ConstMatrixView<double> A,
                             ConstMatrixView<double> B, std::size_t b,
                             memsim::Hierarchy& h, LoopOrder order) {
  check_block_sizes({&b, 1}, "blocked_matmul_explicit");
  blocked_matmul_multilevel_at(C, A, B, {&b, 1}, {&order, 1}, h);
}

void blocked_matmul_multilevel_explicit(
    MatrixView<double> C, ConstMatrixView<double> A,
    ConstMatrixView<double> B, std::span<const std::size_t> block_sizes,
    std::span<const LoopOrder> orders, memsim::Hierarchy& h, double alpha,
    bool b_transposed) {
  check_block_schedule(block_sizes, orders);
  if (block_sizes.size() + 1 != h.levels()) {
    throw std::invalid_argument(
        "hierarchy must have one more level than there are block sizes");
  }
  blocked_matmul_multilevel_at(C, A, B, block_sizes, orders, h, alpha,
                               b_transposed);
}

void naive_dot_matmul_explicit(MatrixView<double> C,
                               ConstMatrixView<double> A,
                               ConstMatrixView<double> B,
                               memsim::Hierarchy& h) {
  // One output element at a time: C(i,j) accumulates in a register;
  // rows of A and columns of B are streamed from slow memory each
  // time.  Writes to slow memory = output size, reads = 2*m*n*l.
  const std::size_t m = C.rows(), l = C.cols(), n = A.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      h.alloc(0, 1);  // accumulator begins in fast memory (R2)
      double s = 0;
      for (std::size_t k = 0; k < n; ++k) {
        h.load(0, 1);
        h.load(0, 1);
        s += A(i, k) * B(k, j);
        h.flops(2);
        h.discard(0, 2);
      }
      C(i, j) += s;
      h.store(0, 1);  // accumulator ends with a store (D1)
    }
  }
}

Alg1Counts algorithm1_expected_counts(std::size_t m, std::size_t n,
                                      std::size_t l, std::size_t b) {
  check_block_sizes({&b, 1}, "algorithm1_expected_counts");
  const std::uint64_t ml = std::uint64_t(m) * l;
  const std::uint64_t mnl = std::uint64_t(m) * n * l;
  return Alg1Counts{ml + 2 * mnl / b, ml};
}

}  // namespace wa::core
