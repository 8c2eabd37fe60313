// Tests for GMRES (MGS and one-reduce) and the preconditioner stack.
#include <gtest/gtest.h>

#include "solver/gmres.hpp"
#include "test_util.hpp"

namespace exw::solver {
namespace {

using testutil::laplace3d;
using testutil::random_spd_ish;
using testutil::random_vector;

struct Problem {
  par::Runtime rt;
  linalg::ParCsr a;
  linalg::ParVector b, x;

  Problem(int nranks, const sparse::Csr& mat)
      : rt(nranks),
        a(linalg::ParCsr::from_serial(
            rt, mat, par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks),
            par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks))),
        b(rt, a.rows()),
        x(rt, a.rows()) {
    b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 17));
    x.fill(0.0);
  }
};

class GmresSweep
    : public ::testing::TestWithParam<std::tuple<OrthoMethod, int>> {};

TEST_P(GmresSweep, SolvesSpdSystem) {
  const auto [ortho, nranks] = GetParam();
  Problem prob(nranks, laplace3d(7, 0.2));
  IdentityPrecond m;
  GmresOptions opts;
  opts.ortho = ortho;
  opts.rel_tol = 1e-8;
  const SolveStats stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  // True residual agrees.
  linalg::ParVector r(prob.rt, prob.a.rows());
  prob.a.residual(prob.b, prob.x, r);
  EXPECT_LT(r.norm2(), 1e-7 * stats.initial_residual);
}

TEST_P(GmresSweep, SolvesNonsymmetricSystem) {
  const auto [ortho, nranks] = GetParam();
  Problem prob(nranks, random_spd_ish(LocalIndex{150}, 6, 23));  // nonsymmetric pattern
  IdentityPrecond m;
  GmresOptions opts;
  opts.ortho = ortho;
  opts.rel_tol = 1e-9;
  const SolveStats stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
}

TEST_P(GmresSweep, RespectsInitialGuess) {
  const auto [ortho, nranks] = GetParam();
  Problem prob(nranks, laplace3d(5, 0.3));
  IdentityPrecond m;
  GmresOptions opts;
  opts.ortho = ortho;
  opts.rel_tol = 1e-10;
  // Solve once, then re-solve starting from the solution: 0 iterations.
  gmres_solve(prob.a, prob.b, prob.x, m, opts);
  const SolveStats again = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    OrthoAndRanks, GmresSweep,
    ::testing::Combine(::testing::Values(OrthoMethod::kMgs,
                                         OrthoMethod::kOneReduce),
                       ::testing::Values(1, 2, 5)));

TEST(Gmres, RestartStillConverges) {
  Problem prob(2, laplace3d(8, 0.05));
  IdentityPrecond m;
  GmresOptions opts;
  opts.restart = 5;  // force several restarts
  opts.max_iters = 400;
  opts.rel_tol = 1e-6;
  const SolveStats stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.iterations, 5);
}

TEST(Gmres, AmgPreconditionerCutsIterations) {
  const auto mat = laplace3d(10, 0.01);
  Problem plain(2, mat), preconditioned(2, mat);
  GmresOptions opts;
  opts.rel_tol = 1e-8;
  IdentityPrecond id;
  const SolveStats s0 = gmres_solve(plain.a, plain.b, plain.x, id, opts);
  AmgPrecond amg_m(preconditioned.a, amg::AmgConfig{});
  const SolveStats s1 = gmres_solve(preconditioned.a, preconditioned.b,
                                    preconditioned.x, amg_m, opts);
  EXPECT_TRUE(s1.converged);
  EXPECT_LT(s1.iterations, s0.iterations / 2);
}

TEST(Gmres, Sgs2PreconditionerConvergesFast) {
  // Paper §4.2: "two outer and two inner iterations often leads to rapid
  // convergence in less than five preconditioned GMRES iterations" for
  // the diagonally dominant momentum systems.
  Problem prob(3, random_spd_ish(LocalIndex{400}, 6, 29));
  SmootherPrecond m(prob.a, amg::SmootherType::kSgs2, 2, 2);
  GmresOptions opts;
  opts.rel_tol = 1e-6;
  const SolveStats stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.iterations, 8);
}

TEST(Gmres, OneReduceUsesFewerCollectives) {
  // The point of the one-reduce variant: one allreduce per iteration vs
  // j+2 for MGS (paper §4.2 / [39]).
  const auto mat = laplace3d(8, 0.02);
  auto collectives_per_iter = [&](OrthoMethod ortho) {
    Problem prob(4, mat);
    IdentityPrecond m;
    GmresOptions opts;
    opts.ortho = ortho;
    opts.rel_tol = 1e-8;
    prob.rt.tracer().reset();
    const SolveStats stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
    EXPECT_TRUE(stats.converged);
    return static_cast<double>(prob.rt.tracer().phase("").collectives) /
           std::max(1, stats.iterations);
  };
  const double mgs = collectives_per_iter(OrthoMethod::kMgs);
  const double one = collectives_per_iter(OrthoMethod::kOneReduce);
  EXPECT_LT(one, 3.0);   // ~1 fused reduction + restart overheads
  EXPECT_GT(mgs, 2.0 * one);
}

TEST(Gmres, ExactPreconditionerConvergesInOneIteration) {
  // With M = A^-1 (via a fully converged inner AMG), right-preconditioned
  // GMRES needs a single iteration.
  const auto mat = laplace3d(6, 0.5);
  Problem prob(1, mat);
  class ExactPrecond final : public Preconditioner {
   public:
    explicit ExactPrecond(const sparse::Csr& m) : lu_(m) {}
    void apply(const linalg::ParVector& r, linalg::ParVector& z) override {
      auto dense = r.gather();
      lu_.solve_in_place(dense);
      z.scatter(dense);
    }

   private:
    sparse::DenseLu lu_;
  } m(mat);
  GmresOptions opts;
  opts.rel_tol = 1e-10;
  const SolveStats stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.iterations, 2);
}

TEST(Gmres, ZeroRhsIsImmediatelyConverged) {
  Problem prob(2, laplace3d(4, 0.1));
  prob.b.fill(0.0);
  IdentityPrecond m;
  const SolveStats stats =
      gmres_solve(prob.a, prob.b, prob.x, m, GmresOptions{});
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
}

// ---------------------------------------------------------------------------
// Ledger guard: the modeled cost of the two solves the paper's time step
// runs, pinned exactly. Kernel fusion, vector layout or solver
// restructuring must not move these totals unless the change is meant to
// alter the modeled work; such a change updates the numbers here.

struct Ledger {
  long kernels;
  double flops;
  double f64_bytes;
  double f32_bytes;
  double index_bytes;
  long messages;
  double msg_bytes;
  long collectives;
  double coll_bytes;
};

Ledger ledger_of(const perf::PhaseStats& s) {
  double msg_bytes = 0;
  for (const auto& rw : s.rank) msg_bytes += rw.msg_bytes;
  return {s.total_kernels(),          s.total_flops(),
          s.total_value_bytes_f64(),  s.total_value_bytes_f32(),
          s.total_index_bytes(),      s.total_messages(),
          msg_bytes,                  s.collectives,
          s.coll_bytes};
}

void expect_ledger(const Ledger& got, const Ledger& want) {
  EXPECT_EQ(got.kernels, want.kernels);
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.f64_bytes, want.f64_bytes);
  EXPECT_EQ(got.f32_bytes, want.f32_bytes);
  EXPECT_EQ(got.index_bytes, want.index_bytes);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.msg_bytes, want.msg_bytes);
  EXPECT_EQ(got.collectives, want.collectives);
  EXPECT_EQ(got.coll_bytes, want.coll_bytes);
}

TEST(LedgerGuard, Sgs2MomentumSolveOnFourRanks) {
  // One momentum-like solve: nonsymmetric pattern, SGS2 (2 outer, 2
  // inner) preconditioner, one-reduce GMRES with a short restart so the
  // restart and epilogue paths run several times.
  Problem prob(4, random_spd_ish(LocalIndex{400}, 7, 61));
  SmootherPrecond m(prob.a, amg::SmootherType::kSgs2, 2, 2);
  GmresOptions opts;
  opts.rel_tol = 1e-10;
  opts.restart = 4;
  prob.rt.tracer().reset();
  const SolveStats stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 13);
  expect_ledger(ledger_of(prob.rt.tracer().phase("")),
                {2332, 760328, 6724064, 0, 849456, 624, 820352, 32, 752});
}

TEST(LedgerGuard, Fp32AmgPressureSolveOnFourRanks) {
  // One pressure-like solve: the FP32 AMG V-cycle (two-stage GS, the
  // default smoother) preconditioning one-reduce GMRES at the paper's
  // pressure tolerance.
  Problem prob(4, laplace3d(9, 0.02));
  amg::AmgConfig cfg;
  cfg.precision = Precision::kF32;
  AmgPrecond m(prob.a, cfg);
  GmresOptions opts;
  opts.rel_tol = 1e-5;
  prob.rt.tracer().reset();
  const SolveStats stats = gmres_solve(prob.a, prob.b, prob.x, m, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 10);
  expect_ledger(ledger_of(prob.rt.tracer().phase("")),
                {1973, 1111440, 4280104, 2244220, 1222572, 490, 236576, 45,
                 4848});
}

}  // namespace
}  // namespace exw::solver
