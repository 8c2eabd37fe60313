// Ablation (paper §4.1): interpolation operators — direct, BAMG-direct
// (Eq. 2), MM-ext, MM-ext+i — with and without aggressive (two-stage)
// coarsening, on the actual turbine pressure matrix. Reports hierarchy
// complexities, measured V-cycle convergence factor, GMRES iterations,
// and the modeled setup/solve split: the trade the paper tunes.

#include <cmath>
#include <cstdio>

#include "amg/hierarchy.hpp"
#include "bench_util.hpp"
#include "solver/gmres.hpp"

using namespace exw;

namespace {

const char* interp_name(amg::InterpType t) {
  switch (t) {
    case amg::InterpType::kDirect: return "direct";
    case amg::InterpType::kBamg: return "BAMG";
    case amg::InterpType::kMmExt: return "MM-ext";
    case amg::InterpType::kMmExtI: return "MM-ext+i";
  }
  return "?";
}

}  // namespace

int main() {
  const double refine = bench::env_refine(0.6);
  auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, refine);
  const auto& db = sys.meshes[1];  // the ill-conditioned rotor mesh
  const int nranks = 8;
  par::Runtime rt(nranks);

  // Assemble the rotor pressure matrix.
  const auto layout =
      assembly::make_layout(db, nranks, assembly::PartitionMethod::kGraph);
  std::vector<std::uint8_t> dirichlet(static_cast<std::size_t>(db.num_nodes()), 0);
  for (std::size_t i = 0; i < dirichlet.size(); ++i) {
    dirichlet[i] = db.roles[i] == mesh::NodeRole::kFringe ||
                   db.roles[i] == mesh::NodeRole::kHole;
  }
  assembly::EquationGraph graph(db, layout, dirichlet);
  for (std::size_t e = 0; e < db.edges.size(); ++e) {
    const Real g = db.edges[e].coeff;
    graph.add_edge(e, {g, -g, -g, g}, {0, 0});
  }
  for (GlobalIndex node{0}; node < db.num_nodes(); ++node) {
    graph.add_node(node, dirichlet[static_cast<std::size_t>(node)] ? 1.0 : 1e-8,
                   1.0);
  }
  std::vector<sparse::Coo> owned, shared;
  for (RankId r{0}; r.value() < nranks; ++r) {
    owned.push_back(graph.rank(r).owned);
    shared.push_back(graph.rank(r).shared);
  }
  const auto& rows = layout.numbering.rows;
  const auto a = assembly::assemble_matrix(rt, rows, rows, owned, shared);
  std::printf("Interpolation ablation — rotor pressure matrix (%lld rows, "
              "boundary-layer anisotropy)\n\n",
              static_cast<long long>(a.global_rows().value()));

  linalg::ParVector b(rt, a.rows()), x(rt, a.rows()), r(rt, a.rows());
  b.fill(1.0);

  std::printf("%-10s %4s %7s %6s %8s %6s | %10s %10s\n", "interp", "agg",
              "levels", "opC", "rho", "iters", "setup[s]", "solve[s]");
  for (auto interp : {amg::InterpType::kDirect, amg::InterpType::kBamg,
                      amg::InterpType::kMmExt, amg::InterpType::kMmExtI}) {
    for (int agg : {0, 2}) {
      amg::AmgConfig cfg;
      cfg.interp = interp;
      cfg.agg_levels = agg;

      rt.tracer().reset();
      rt.tracer().push_phase("setup");
      amg::AmgHierarchy h(a, cfg);
      rt.tracer().pop_phase();

      x.fill(0.0);
      a.residual(b, x, r);
      const Real r0 = r.norm2();
      const int cycles = 10;
      for (int it = 0; it < cycles; ++it) {
        h.vcycle(b, x);
      }
      a.residual(b, x, r);
      const double rho =
          std::pow(static_cast<double>(r.norm2() / r0), 1.0 / cycles);

      x.fill(0.0);
      solver::AmgPrecond precond(a, cfg);
      solver::GmresOptions opts;
      opts.rel_tol = 1e-8;
      rt.tracer().push_phase("solve");
      const auto stats = solver::gmres_solve(a, b, x, precond, opts).lane[0];
      rt.tracer().pop_phase();

      const auto gpu = perf::MachineModel::summit_gpu();
      std::printf("%-10s %4d %7d %6.2f %8.3f %6d | %10.4f %10.4f\n",
                  interp_name(interp), agg, h.num_levels(),
                  h.operator_complexity(), rho, stats.iterations,
                  rt.tracer().phase_time("setup", gpu),
                  rt.tracer().phase_time("solve", gpu));
    }
  }
  std::printf("\n(expected: MM-ext family converges best; aggressive "
              "coarsening cuts opC and setup at some convergence cost)\n");
  return 0;
}
