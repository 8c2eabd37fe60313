// Quickstart: assemble a pressure-Poisson-type system on a graded box
// mesh through the hypre-style IJ interface and solve it with the
// paper's solver configuration (AMG-preconditioned one-reduce GMRES).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [nranks]

#include <cstdio>
#include <cstdlib>

#include "assembly/ij.hpp"
#include "mesh/meshdb.hpp"
#include "solver/gmres.hpp"

using namespace exw;

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 8;

  // 1. A graded box mesh (boundary-layer-like clustering in z).
  mesh::MeshDB db;
  const GlobalIndex n{24};
  mesh::StructuredBlockBuilder block(n, n, n);
  block.emit(db, [&](GlobalIndex i, GlobalIndex j, GlobalIndex k) {
    const Real t = static_cast<Real>(k.value()) / static_cast<Real>(n.value());
    return Vec3{static_cast<Real>(i.value()), static_cast<Real>(j.value()),
                24.0 * t * t};  // quadratic clustering: anisotropic cells
  });
  db.coords = db.ref_coords;
  db.compute_dual_quantities();
  std::printf("mesh: %lld nodes, %lld hexes, %lld dual edges\n",
              static_cast<long long>(db.num_nodes().value()),
              static_cast<long long>(db.num_hexes().value()),
              static_cast<long long>(db.num_edges().value()));

  // 2. A simulated distributed runtime with `nranks` ranks.
  par::Runtime rt(nranks);
  const auto rows = par::RowPartition::even(db.num_nodes(), nranks);

  // 3. Assemble the Laplacian + RHS through the six-call IJ pattern.
  //    (Real applications use the assembly::EquationGraph pipeline; the
  //    IJ interface is the low-level entry point, as in hypre.)
  assembly::IJMatrix ij_mat(rt, rows, rows);
  assembly::IJVector ij_rhs(rt, rows);
  std::vector<std::vector<GlobalIndex>> ri(static_cast<std::size_t>(nranks)),
      ci(static_cast<std::size_t>(nranks));
  std::vector<std::vector<Real>> vi(static_cast<std::size_t>(nranks));
  auto push = [&](RankId r, GlobalIndex row, GlobalIndex col, Real v) {
    ri[static_cast<std::size_t>(r)].push_back(row);
    ci[static_cast<std::size_t>(r)].push_back(col);
    vi[static_cast<std::size_t>(r)].push_back(v);
  };
  // Each edge is "evaluated" by the owner of its lower endpoint; the
  // contribution to the other row goes through AddToValues2.
  for (const auto& e : db.edges) {
    const RankId r = rows.rank_of(std::min(e.a, e.b));
    push(r, e.a, e.a, e.coeff + 1e-6);
    push(r, e.a, e.b, -e.coeff);
    push(r, e.b, e.b, e.coeff + 1e-6);
    push(r, e.b, e.a, -e.coeff);
  }
  for (RankId r{0}; r.value() < nranks; ++r) {
    // Split into owned rows (SetValues2) and off-rank rows (AddToValues2).
    std::vector<GlobalIndex> orow, ocol, srow, scol;
    std::vector<Real> oval, sval;
    for (std::size_t k = 0; k < ri[static_cast<std::size_t>(r)].size(); ++k) {
      if (rows.owns(r, ri[static_cast<std::size_t>(r)][k])) {
        orow.push_back(ri[static_cast<std::size_t>(r)][k]);
        ocol.push_back(ci[static_cast<std::size_t>(r)][k]);
        oval.push_back(vi[static_cast<std::size_t>(r)][k]);
      } else {
        srow.push_back(ri[static_cast<std::size_t>(r)][k]);
        scol.push_back(ci[static_cast<std::size_t>(r)][k]);
        sval.push_back(vi[static_cast<std::size_t>(r)][k]);
      }
    }
    ij_mat.SetValues2(r, orow, ocol, oval);
    ij_mat.AddToValues2(r, srow, scol, sval);
    // RHS: unit source on owned rows.
    std::vector<GlobalIndex> rr;
    std::vector<Real> rv;
    for (GlobalIndex g = rows.first_row(r); g < rows.end_row(r); ++g) {
      rr.push_back(g);
      rv.push_back(1.0);
    }
    ij_rhs.SetValues2(r, rr, rv);
  }
  const linalg::ParCsr a = ij_mat.Assemble();   // Algorithm 1
  const linalg::ParVector b = ij_rhs.Assemble();  // Algorithm 2
  std::printf("matrix: %lld rows, %lld nonzeros over %d ranks\n",
              static_cast<long long>(a.global_rows().value()),
              static_cast<long long>(a.global_nnz().value()), nranks);

  // 4. BoomerAMG-style preconditioner (aggressive PMIS + MM-ext + two-
  //    stage Gauss-Seidel) inside one-reduce GMRES.
  amg::AmgConfig amg_cfg;
  solver::AmgPrecond precond(a, amg_cfg);
  std::printf("%s\n", precond.hierarchy().describe().c_str());

  linalg::ParVector x(rt, rows);
  solver::GmresOptions opts;
  opts.rel_tol = 1e-8;
  const auto stats = solver::gmres_solve(a, b, x, precond, opts).lane[0];
  std::printf("GMRES: %d iterations, converged=%d, ||r||/||r0|| = %.3e\n",
              stats.iterations, stats.converged ? 1 : 0,
              stats.final_residual / stats.initial_residual);

  // 5. Modeled cost of the solve under the paper's platforms.
  const auto& root = rt.tracer().phase("");
  std::printf("modeled time:  SummitGPU %.4f s | EagleGPU %.4f s | "
              "SummitCPU %.4f s (per-rank work identical, clock differs)\n",
              root.modeled_time(perf::MachineModel::summit_gpu()),
              root.modeled_time(perf::MachineModel::eagle_gpu()),
              root.modeled_time(perf::MachineModel::summit_cpu()));
  return stats.converged ? 0 : 1;
}
