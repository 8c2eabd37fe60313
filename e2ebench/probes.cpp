// Per-layer probes of the traced run. Each probe calls one module's
// public functions on the workload's own case, rank count, partition
// method and SimConfig preset, inside a span named <layer>.<probe>.
// Times are medians over a few calls; counts are exact.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "amg/cache.hpp"
#include "assembly/global.hpp"
#include "assembly/graph.hpp"
#include "assembly/layout.hpp"
#include "assembly/plan.hpp"
#include "e2e.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "mesh/generators.hpp"
#include "par/runtime.hpp"
#include "solver/gmres.hpp"
#include "solver/precond.hpp"

namespace e2e {

namespace {

using namespace exw;

/// Median seconds per call of `fn` over `reps` calls, each inside a span.
template <typename F>
double timed(SpanLog& log, const char* span, int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    SpanScope s(&log, span);
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Median seconds per call over `batches` batches of `calls` calls.
template <typename F>
double timed_batch(SpanLog& log, const char* span, int batches, int calls,
                   F&& fn) {
  return timed(log, span, batches, [&] {
           for (int i = 0; i < calls; ++i) fn();
         }) /
         calls;
}

/// Size of the last-level cache in bytes (32 MiB if the C library
/// cannot tell).
double llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v <= 0) v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return v > 0 ? static_cast<double>(v) : 32.0 * 1024 * 1024;
}

/// STREAM-style triad a = b + s*c on all hardware threads, each array
/// 4x the last-level cache so every pass streams from memory. Returns
/// the best pass in GB/s (counting 3 x 8 bytes per element, as STREAM).
double triad_gbs(SpanLog& log, JsonObject& out) {
  const double llc = llc_bytes();
  const std::size_t n = static_cast<std::size_t>(4.0 * llc / sizeof(double));
  const int nt = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  auto pass = [&](double s) {
    std::vector<std::thread> ts;
    for (int t = 0; t < nt; ++t) {
      ts.emplace_back([&, t] {
        const std::size_t lo = n * t / nt, hi = n * (t + 1) / nt;
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
      });
    }
    for (auto& th : ts) th.join();
  };
  pass(3.0);  // first touch of a
  double best = 1e30;
  for (int k = 0; k < 5; ++k) {
    SpanScope sp(&log, "host.triad");
    const double t0 = now_s();
    pass(3.0 + k);
    best = std::min(best, now_s() - t0);
  }
  if (a[n / 2] != 1.0 + 7.0 * 2.0) best = 1e30;  // last pass used s = 7
  out.num("host.llc_mib", llc / (1024.0 * 1024.0));
  out.num("host.triad_array_mib", static_cast<double>(n * sizeof(double)) /
                                      (1024.0 * 1024.0));
  return 3.0 * sizeof(double) * static_cast<double>(n) / best / 1e9;
}

/// Bytes one y = A x pass over a CSR matrix moves: values + column
/// indices + row pointers, one read of x and one write of y.
double spmv_bytes(const sparse::Csr& s) {
  const auto nnz = static_cast<double>(s.nnz());
  const auto rows = static_cast<double>(s.nrows().value());
  const auto cols = static_cast<double>(s.ncols().value());
  return nnz * (sizeof(Real) + sizeof(LocalIndex)) +
         (rows + 1) * sizeof(EntryOffset) + cols * sizeof(Real) +
         rows * sizeof(Real);
}

/// The workload's pressure system on one mesh: the Simulation's Dirichlet
/// roles and edge Laplacian, with a seeded right-hand side.
struct PressureSystem {
  std::vector<std::uint8_t> dirichlet;
  std::unique_ptr<assembly::EquationGraph> graph;
};

PressureSystem pressure_system(const mesh::MeshDB& db,
                               const assembly::MeshLayout& layout,
                               unsigned seed) {
  PressureSystem ps;
  const auto n = static_cast<std::size_t>(db.num_nodes());
  ps.dirichlet.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto role = db.roles[i];
    ps.dirichlet[i] = role == mesh::NodeRole::kOutflow ||
                      role == mesh::NodeRole::kFringe ||
                      role == mesh::NodeRole::kHole;
  }
  ps.graph = std::make_unique<assembly::EquationGraph>(db, layout, ps.dirichlet);
  ps.graph->zero_values();
  for (std::size_t e = 0; e < db.edges.size(); ++e) {
    const Real g = db.edges[e].coeff;
    ps.graph->add_edge(e, {g, -g, -g, g}, {0.0, 0.0});
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> dist(-1.0, 1.0);
  for (GlobalIndex node{0}; node < db.num_nodes(); ++node) {
    const bool d = ps.dirichlet[static_cast<std::size_t>(node)] != 0;
    const Real rhs = dist(rng);
    ps.graph->add_node(node, d ? 1.0 : 0.0, d ? 0.0 : rhs);
  }
  return ps;
}

}  // namespace

bool run_probes(const Workload& w, const cfd::SimConfig& cfg, unsigned seed,
                SpanLog& log, JsonObject& out) {
  const double triad = triad_gbs(log, out);
  out.num("host.triad_gbs", triad);

  mesh::OversetSystem sys;
  const double make_case = timed(log, "mesh.make_case", 1, [&] {
    sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, kRefine);
  });
  out.num("mesh.make_case_s", make_case);

  par::Runtime rt(w.nranks);
  perf::Tracer& tr = rt.tracer();
  std::vector<assembly::MeshLayout> layouts(sys.meshes.size());
  double layout_s = 0;
  for (std::size_t m = 0; m < sys.meshes.size(); ++m) {
    layout_s += timed(log, "part.layout", 1, [&] {
      layouts[m] = assembly::make_layout(sys.meshes[m], w.nranks, cfg.partition);
    });
  }
  out.num("part.layout_s", layout_s);

  amg::AmgConfig acfg = cfg.pressure_amg;
  acfg.precision = cfg.precond_precision;
  double global_s = 0, global_msgs = 0, setup_s = 0, refresh_s = 0,
         vcycle_s = 0, gmres_s = 0, spmv_s = 0, halo_s = 0, dot_s = 0,
         sparse_spmv_s = 0, bytes = 0, fine_nnz = 0, level_nnz = 0;
  int levels = 0, iters = 0;
  double max_true_rel = 0;
  bool converged = true, residual_ok = true;
  for (std::size_t m = 0; m < sys.meshes.size(); ++m) {
    PressureSystem ps = [&] {
      SpanScope s(&log, "assembly.graph");
      return pressure_system(sys.meshes[m], layouts[m], seed + m);
    }();
    const auto& rows = layouts[m].numbering.rows;
    const auto views = assembly::system_views(*ps.graph);
    const auto span = std::span<const assembly::SystemView>(views);

    linalg::ParCsr a;
    tr.reset();
    {
      perf::PhaseScope ph(tr, "probe_assembly");
      global_s += timed(log, "assembly.global", 3, [&] {
        a = assembly::assemble_matrix(rt, rows, rows, span, cfg.assembly_algo);
      });
    }
    global_msgs += static_cast<double>(tr.phase("probe_assembly").messages) / 3;
    const linalg::ParVector b =
        assembly::assemble_vector(rt, rows, span, cfg.assembly_algo);

    amg::HierarchyCache hc;
    const std::uint64_t gen = ps.graph->generation();
    setup_s += timed(log, "amg.setup", 3, [&] {
      hc.rebuild(a, acfg, gen, /*freeze=*/cfg.use_amg_cache);
    });
    if (!cfg.use_amg_cache) hc.rebuild(a, acfg, gen, /*freeze=*/true);
    refresh_s += timed(log, "amg.refresh", 3, [&] { hc.refresh(a); });
    levels = std::max(levels, hc.hierarchy().num_levels());
    const double nnz = static_cast<double>(a.global_nnz().value());
    fine_nnz += nnz;
    level_nnz += nnz * hc.hierarchy().operator_complexity();

    solver::AmgPrecond precond(hc.hierarchy());
    linalg::ParVector z(rt, rows);
    vcycle_s += timed(log, "amg.vcycle", 9, [&] { precond.apply(b, z); });

    linalg::ParVector x(rt, rows);
    solver::SolveStats st;
    gmres_s += timed(log, "solver.gmres", 1, [&] {
      x.fill(0.0);
      st = solver::gmres_solve(a, b, x, precond, cfg.pressure_gmres);
    });
    iters += st.iterations;
    converged = converged && st.converged;
    // Independent check of the solver's verdict: the true relative
    // residual ||b - A x|| / ||b|| (x0 = 0) must agree with what the
    // solver reports and, when it claims convergence, meet the tolerance.
    linalg::ParVector r(rt, rows);
    a.residual(b, x, r);
    const double true_rel = r.norm2() / b.norm2();
    const double reported_rel = st.final_residual / st.initial_residual;
    const double tol = cfg.pressure_gmres.rel_tol;
    residual_ok = residual_ok && std::isfinite(true_rel) &&
                  true_rel <= std::max(1.5 * tol, 1.05 * reported_rel) &&
                  (!st.converged || true_rel <= 1.5 * tol);
    max_true_rel = std::max(max_true_rel, true_rel);

    linalg::ParVector y(rt, rows);
    spmv_s += timed_batch(log, "linalg.spmv", 5, 20, [&] { a.matvec(x, y); });
    halo_s += timed_batch(log, "linalg.halo", 5, 20,
                          [&] { (void)a.halo_exchange(x); });
    dot_s += timed_batch(log, "linalg.dot", 5, 20, [&] { (void)x.dot(y); });

    const sparse::Csr s = a.to_serial();
    std::vector<Real> sx(static_cast<std::size_t>(s.ncols().value()), 1.0);
    std::vector<Real> sy(static_cast<std::size_t>(s.nrows().value()), 0.0);
    sparse_spmv_s += timed_batch(log, "sparse.spmv", 5, 20,
                                 [&] { s.spmv(sx, sy); });
    bytes += spmv_bytes(s);
  }
  out.num("assembly.global_s", global_s);
  out.num("assembly.global_msgs", global_msgs);
  out.num("amg.setup_s", setup_s);
  out.num("amg.refresh_s", refresh_s);
  out.num("amg.vcycle_s", vcycle_s);
  out.num("amg.levels", levels);
  out.num("amg.op_complexity", level_nnz / fine_nnz);
  out.num("solver.gmres_s", gmres_s);
  out.num("solver.gmres_iters", iters);
  out.num("solver.s_per_iter", gmres_s / std::max(1, iters));
  out.num("solver.gmres_converged", converged ? 1 : 0);
  out.num("solver.true_rel_residual", max_true_rel);
  out.num("linalg.spmv_s", spmv_s);
  out.num("linalg.halo_s", halo_s);
  out.num("linalg.dot_s", dot_s);
  out.num("sparse.spmv_gbs", bytes / sparse_spmv_s / 1e9);
  out.num("sparse.spmv_bw_frac", bytes / sparse_spmv_s / 1e9 / triad);
  out.num("linalg.spmv_gbs", bytes / spmv_s / 1e9);
  out.num("linalg.spmv_bw_frac", bytes / spmv_s / 1e9 / triad);

  const std::vector<double> ones(static_cast<std::size_t>(w.nranks), 1.0);
  out.num("par.dispatch_us", 1e6 * timed_batch(log, "par.dispatch", 5, 200, [&] {
            rt.parallel_for_ranks([](RankId) {});
          }));
  out.num("par.allreduce_us", 1e6 * timed_batch(log, "par.allreduce", 5, 200, [&] {
            (void)rt.allreduce_sum(ones);
          }));
  return residual_ok;
}

}  // namespace e2e
