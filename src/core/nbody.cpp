#include "core/nbody.hpp"

#include <cmath>
#include <stdexcept>

#include "core/loop_order.hpp"

namespace wa::core {

namespace {
constexpr double kSoftening = 0.25;
}

double pair_force(double xi, double xj) {
  const double d = xj - xi;
  const double r2 = d * d + kSoftening;
  return d / (r2 * std::sqrt(r2));
}

std::vector<double> nbody2_reference(std::span<const double> P) {
  const std::size_t n = P.size();
  std::vector<double> F(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) F[i] += pair_force(P[i], P[j]);
    }
  }
  return F;
}

namespace {

// One cross-block interaction pass at level t = bs.size() - 1: F1
// (resident one level up) accumulates the forces of P2 on P1.  With one
// block size this is Algorithm 4 verbatim.
void nbody2_ml_rec(std::span<const double> P1, std::span<const double> P2,
                   std::span<double> F1, std::span<const std::size_t> bs,
                   memsim::Hierarchy& h) {
  if (bs.empty()) {
    // pair_force is softened and returns 0 at coincidence, so the
    // self-pair contributes nothing and needs no index bookkeeping.
    for (std::size_t i = 0; i < P1.size(); ++i) {
      for (std::size_t j = 0; j < P2.size(); ++j) {
        F1[i] += pair_force(P1[i], P2[j]);
      }
    }
    h.flops(std::uint64_t(P1.size()) * P2.size());
    return;
  }
  const std::size_t t = bs.size() - 1, b = bs[t];
  for (std::size_t bi = 0; bi < P1.size(); bi += b) {
    const std::size_t li = std::min(b, P1.size() - bi);
    h.load(t, li);   // P1 sub-block
    h.alloc(t, li);  // F1 sub-accumulator initialized in place (R2)
    std::vector<double> f_local(li, 0.0);
    for (std::size_t bj = 0; bj < P2.size(); bj += b) {
      const std::size_t lj = std::min(b, P2.size() - bj);
      h.load(t, lj);  // P2 sub-block
      nbody2_ml_rec(P1.subspan(bi, li), P2.subspan(bj, lj), f_local,
                    bs.first(t), h);
      h.discard(t, lj);  // P2 sub-block forgotten (D2)
    }
    for (std::size_t i = 0; i < li; ++i) F1[bi + i] += f_local[i];
    h.discard(t, li);  // P1 sub-block forgotten (D2)
    h.store(t, li);    // F1 sub-accumulator: its only store here (D1)
  }
}

}  // namespace

std::vector<double> nbody2_blocked_explicit(std::span<const double> P,
                                            std::size_t b,
                                            memsim::Hierarchy& h) {
  check_block_sizes({&b, 1}, "nbody2_blocked_explicit");
  if (P.size() % b != 0) throw std::invalid_argument("nbody: N % b != 0");
  std::vector<double> F(P.size(), 0.0);
  nbody2_ml_rec(P, P, F, {&b, 1}, h);
  return F;
}

std::vector<double> nbody2_multilevel_explicit(
    std::span<const double> P, std::span<const std::size_t> block_sizes,
    memsim::Hierarchy& h) {
  if (block_sizes.empty()) {
    throw std::invalid_argument("nbody_ml: need >= 1 block size");
  }
  check_block_sizes(block_sizes, "nbody2_multilevel_explicit");
  if (block_sizes.size() + 1 != h.levels()) {
    throw std::invalid_argument(
        "nbody_ml: hierarchy must have one more level than block sizes");
  }
  std::vector<double> F(P.size(), 0.0);
  nbody2_ml_rec(P, P, F, block_sizes, h);
  // Self-interactions contributed pair_force(x, x) = 0, so no
  // correction is needed (the kernel is softened and antisymmetric).
  return F;
}

std::vector<double> nbody2_symmetric_explicit(std::span<const double> P,
                                              std::size_t b,
                                              memsim::Hierarchy& h) {
  check_block_sizes({&b, 1}, "nbody2_symmetric_explicit");
  const std::size_t n = P.size();
  if (n % b != 0) throw std::invalid_argument("nbody: N % b != 0");
  std::vector<double> F(n, 0.0);
  const std::size_t nb = n / b;

  // Every unordered block pair (bi <= bj) is visited once; both force
  // blocks must be read-modified-written, so each F block is written
  // back ~nb times: Theta(N^2 / b) slow writes in total.
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t bj = bi; bj < nb; ++bj) {
      if (bi == bj) {
        h.load(0, 2 * b);  // P(i), F(i)
        for (std::size_t i = bi * b; i < (bi + 1) * b; ++i) {
          for (std::size_t j = i + 1; j < (bi + 1) * b; ++j) {
            const double f = pair_force(P[i], P[j]);
            F[i] += f;
            F[j] -= f;
          }
        }
        h.flops(std::uint64_t(b) * (b - 1) / 2);
        h.discard(0, b);  // P block
        h.store(0, b);    // F block written back
      } else {
        h.load(0, 4 * b);  // P(i), P(j), F(i), F(j)
        for (std::size_t i = bi * b; i < (bi + 1) * b; ++i) {
          for (std::size_t j = bj * b; j < (bj + 1) * b; ++j) {
            const double f = pair_force(P[i], P[j]);
            F[i] += f;
            F[j] -= f;
          }
        }
        h.flops(std::uint64_t(b) * b);
        h.discard(0, 2 * b);  // both P blocks
        h.store(0, b);        // F(i) written back
        h.store(0, b);        // F(j) written back
      }
    }
  }
  return F;
}

double tuple_force(std::span<const double> xs) {
  // Synthetic symmetric-free k-tuple interaction: product of softened
  // pair kernels between the first particle and every other member.
  double f = 1.0;
  for (std::size_t j = 1; j < xs.size(); ++j) f *= pair_force(xs[0], xs[j]);
  return f;
}

namespace {

void nbodyk_tuples(std::span<const double> P, unsigned k,
                   std::vector<std::size_t>& idx, std::size_t depth,
                   double* f_out) {
  // Reference: iterate all ordered tuples with pairwise-distinct
  // indices; accumulate the force on particle idx[0].
  const std::size_t n = P.size();
  if (depth == k) {
    std::vector<double> xs(k);
    for (unsigned t = 0; t < k; ++t) xs[t] = P[idx[t]];
    f_out[idx[0]] += tuple_force(xs);
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    bool dup = false;
    for (std::size_t t = 0; t < depth; ++t) dup = dup || (idx[t] == j);
    if (dup) continue;
    idx[depth] = j;
    nbodyk_tuples(P, k, idx, depth + 1, f_out);
  }
}

struct BlockLoopCtx {
  std::span<const double> P;
  unsigned k;
  std::size_t b, nb;
  memsim::Hierarchy* h;
  std::vector<double>* F;
  std::vector<std::size_t> blk;  // current block index per nesting level
};

void nbodyk_block_level(BlockLoopCtx& ctx, unsigned depth) {
  if (depth == ctx.k) {
    // Innermost: all k blocks resident; enumerate tuples inside them.
    std::vector<std::size_t> idx(ctx.k);
    std::vector<double> xs(ctx.k);
    // Recursive tuple enumeration restricted to the resident blocks.
    auto rec = [&](auto&& self, unsigned d) -> void {
      if (d == ctx.k) {
        bool dup = false;
        for (unsigned a = 0; a < ctx.k && !dup; ++a)
          for (unsigned c = a + 1; c < ctx.k; ++c)
            dup = dup || (idx[a] == idx[c]);
        if (dup) return;
        for (unsigned t = 0; t < ctx.k; ++t) xs[t] = ctx.P[idx[t]];
        (*ctx.F)[idx[0]] += tuple_force(xs);
        return;
      }
      const std::size_t lo = ctx.blk[d] * ctx.b;
      for (std::size_t j = lo; j < lo + ctx.b; ++j) {
        idx[d] = j;
        self(self, d + 1);
      }
    };
    rec(rec, 0);
    double fl = 1;
    for (unsigned t = 0; t < ctx.k; ++t) fl *= double(ctx.b);
    ctx.h->flops(std::uint64_t(fl));
    return;
  }
  for (std::size_t bj = 0; bj < ctx.nb; ++bj) {
    ctx.blk[depth] = bj;
    ctx.h->load(0, ctx.b);  // P^(depth+1) block
    if (depth == 0) {
      ctx.h->alloc(0, ctx.b);  // F block (R2)
    }
    nbodyk_block_level(ctx, depth + 1);
    ctx.h->discard(0, ctx.b);  // P block (D2)
    if (depth == 0) {
      ctx.h->store(0, ctx.b);  // F block: only store (D1)
    }
  }
}

}  // namespace

std::vector<double> nbodyk_reference(std::span<const double> P, unsigned k) {
  std::vector<double> F(P.size(), 0.0);
  std::vector<std::size_t> idx(k);
  const std::size_t n = P.size();
  for (std::size_t i = 0; i < n; ++i) {
    idx[0] = i;
    nbodyk_tuples(P, k, idx, 1, F.data());
  }
  return F;
}

std::vector<double> nbodyk_blocked_explicit(std::span<const double> P,
                                            unsigned k, std::size_t b,
                                            memsim::Hierarchy& h) {
  if (k < 2) throw std::invalid_argument("nbodyk: k >= 2 required");
  check_block_sizes({&b, 1}, "nbodyk_blocked_explicit");
  if (P.size() % b != 0) throw std::invalid_argument("nbodyk: N % b != 0");
  std::vector<double> F(P.size(), 0.0);
  BlockLoopCtx ctx{P, k, b, P.size() / b, &h, &F,
                   std::vector<std::size_t>(k)};
  nbodyk_block_level(ctx, 0);
  return F;
}

}  // namespace wa::core
