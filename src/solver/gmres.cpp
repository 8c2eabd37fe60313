#include "solver/gmres.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace exw::solver {

namespace {

/// Per-rank partial dots of w against v[0..count), plus ||w||^2, fused
/// into ONE allreduce — the kernel of the one-reduce orthogonalization.
std::vector<double> fused_dots(const std::vector<linalg::ParVector>& v,
                               std::size_t count, const linalg::ParVector& w) {
  par::Runtime& rt = w.runtime();
  const int nranks = w.nranks();
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(nranks),
      std::vector<double>(count + 1, 0.0));
  rt.parallel_for_ranks([&](RankId r) {
    const auto& wl = w.local(r);
    auto& p = partial[static_cast<std::size_t>(r)];
    for (std::size_t j = 0; j < count; ++j) {
      const auto& vl = v[j].local(r);
      double s = 0;
      for (std::size_t i = 0; i < wl.size(); ++i) {
        s += vl[i] * wl[i];
      }
      p[j] = s;
    }
    double s = 0;
    for (double x : wl) s += x * x;
    p[count] = s;
    rt.tracer().kernel(
        r, 2.0 * static_cast<double>((count + 1) * wl.size()),
        static_cast<double>((count + 2) * wl.size()) * sizeof(Real));
  });
  return rt.allreduce_sum_vec(partial);
}

}  // namespace

SolveStats gmres_solve(const linalg::ParMatrix& a, const linalg::ParVector& b,
                       linalg::ParVector& x, Preconditioner& m,
                       const GmresOptions& opts) {
  par::Runtime& rt = a.runtime();
  const int restart = opts.restart;
  SolveStats stats;

  linalg::ParVector r(rt, a.rows());
  linalg::ParVector w(rt, a.rows());
  linalg::ParVector z(rt, a.rows());

  // Convergence target follows hypre's convention: relative to ||b||.
  const Real bnorm = b.norm2();
  a.residual(b, x, r);
  Real beta = r.norm2();
  stats.initial_residual = beta;
  stats.final_residual = beta;
  const Real target =
      std::max(opts.rel_tol * (bnorm > 0.0 ? bnorm : beta), opts.abs_tol);
  if (beta <= target || beta == 0.0) {
    stats.converged = true;
    return stats;
  }

  std::vector<linalg::ParVector> v;  // Krylov basis
  // Hessenberg (column-major by iteration), Givens rotations, rhs.
  std::vector<std::vector<Real>> h;
  std::vector<Real> cs(static_cast<std::size_t>(restart) + 1);
  std::vector<Real> sn(static_cast<std::size_t>(restart) + 1);
  std::vector<Real> g(static_cast<std::size_t>(restart) + 1);

  while (stats.iterations < opts.max_iters) {
    // (Re)start.
    a.residual(b, x, r);
    beta = r.norm2();
    stats.final_residual = beta;
    if (beta <= target) {
      stats.converged = true;
      return stats;
    }
    v.clear();
    h.assign(static_cast<std::size_t>(restart),
             std::vector<Real>(static_cast<std::size_t>(restart) + 1, 0.0));
    v.emplace_back(rt, a.rows());
    v[0].copy_from(r);
    v[0].scale(1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    for (; j < restart && stats.iterations < opts.max_iters; ++j) {
      stats.iterations += 1;
      // w = A M^-1 v_j.
      m.apply(v[static_cast<std::size_t>(j)], z);
      a.matvec(z, w);

      auto& hj = h[static_cast<std::size_t>(j)];
      if (opts.ortho == OrthoMethod::kMgs) {
        // One reduction per projection + one for the norm.
        for (std::size_t i = 0; i < static_cast<std::size_t>(j) + 1; ++i) {
          hj[i] = w.dot(v[i]);
          w.axpy(-hj[i], v[i]);
        }
        hj[static_cast<std::size_t>(j) + 1] = w.norm2();
      } else {
        // One fused reduction: [V^T w ; ||w||^2].
        const auto dots = fused_dots(v, static_cast<std::size_t>(j) + 1, w);
        double h_norm2 = 0;
        for (std::size_t i = 0; i < static_cast<std::size_t>(j) + 1; ++i) {
          hj[i] = dots[i];
          h_norm2 += dots[i] * dots[i];
          w.axpy(-hj[i], v[i]);
        }
        const double w_norm2 = dots[static_cast<std::size_t>(j) + 1];
        double corrected = w_norm2 - h_norm2;
        // The Pythagorean identity ||w - V h||^2 = ||w||^2 - ||h||^2 only
        // holds for an orthonormal V. A single classical Gram-Schmidt pass
        // loses orthogonality exactly when the projections dominate (e.g.
        // under a strong preconditioner the new Krylov direction is tiny),
        // and a corrupted h stalls the Givens residual estimate above the
        // target while the true residual keeps falling. Rutishauser's
        // "twice is enough" criterion: if the pass removed more than half
        // of ||w||^2, reorthogonalize with a second fused reduction.
        if (!(corrected > 0.5 * w_norm2)) {
          const auto dots2 =
              fused_dots(v, static_cast<std::size_t>(j) + 1, w);
          double c_norm2 = 0;
          for (std::size_t i = 0; i < static_cast<std::size_t>(j) + 1; ++i) {
            const double c = dots2[i];
            hj[i] += c;
            c_norm2 += c * c;
            w.axpy(-c, v[i]);
          }
          // The second pass removes only O(eps)-sized components, so its
          // own Pythagorean update is reliable unless w vanished entirely.
          const double w_norm2_2 = dots2[static_cast<std::size_t>(j) + 1];
          corrected = w_norm2_2 - c_norm2;
          if (corrected > 1e-4 * w_norm2_2) {
            hj[static_cast<std::size_t>(j) + 1] = std::sqrt(corrected);
          } else {
            // Happy breakdown / full cancellation: take the explicit norm.
            hj[static_cast<std::size_t>(j) + 1] = w.norm2();
          }
        } else {
          hj[static_cast<std::size_t>(j) + 1] = std::sqrt(corrected);
        }
      }

      const Real hlast = hj[static_cast<std::size_t>(j) + 1];
      if (hlast > 0.0) {
        v.emplace_back(rt, a.rows());
        v.back().copy_from(w);
        v.back().scale(1.0 / hlast);
      }

      // Apply accumulated Givens rotations to the new column.
      for (std::int64_t i = 0; i < j; ++i) {
        const Real t = cs[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i)] +
                       sn[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i) + 1];
        hj[static_cast<std::size_t>(i) + 1] =
            -sn[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i)] +
            cs[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i) + 1];
        hj[static_cast<std::size_t>(i)] = t;
      }
      const Real denom = std::hypot(hj[static_cast<std::size_t>(j)], hlast);
      if (denom == 0.0) {
        ++j;
        break;  // exact solution reached
      }
      cs[static_cast<std::size_t>(j)] = hj[static_cast<std::size_t>(j)] / denom;
      sn[static_cast<std::size_t>(j)] = hlast / denom;
      hj[static_cast<std::size_t>(j)] = denom;
      hj[static_cast<std::size_t>(j) + 1] = 0.0;
      g[static_cast<std::size_t>(j) + 1] = -sn[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] = cs[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];

      stats.final_residual = std::abs(g[static_cast<std::size_t>(j) + 1]);
      if (stats.final_residual <= target || hlast == 0.0) {
        ++j;
        break;
      }
    }

    // Back-substitute y and update x += M^-1 (V y).
    std::vector<Real> y(static_cast<std::size_t>(j), 0.0);
    for (std::int64_t i = j - 1; i >= 0; --i) {
      Real acc = g[static_cast<std::size_t>(i)];
      for (std::int64_t k = i + 1; k < j; ++k) {
        acc -= h[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] *
               y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] =
          acc / h[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
    }
    w.fill(0.0);
    for (std::int64_t i = 0; i < j; ++i) {
      w.axpy(y[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)]);
    }
    m.apply(w, z);
    x.axpy(1.0, z);

    if (stats.final_residual <= target) {
      // Confirm with a true residual before declaring victory.
      a.residual(b, x, r);
      stats.final_residual = r.norm2();
      if (stats.final_residual <= 1.5 * std::max(target, Real{1e-300})) {
        stats.converged = true;
        return stats;
      }
    }
  }
  return stats;
}

}  // namespace exw::solver
