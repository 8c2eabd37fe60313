// Mixed-precision preconditioning (DESIGN.md §16).
//
// Pins the contracts the perf story rests on:
//   * the demote boundary: round-trip exactness, overflow guard, FTZ of
//     subnormals, NaN/inf pass-through;
//   * the mixed V-cycle is bitwise deterministic, rank-count invariant
//     (1/2/4/8 simulated ranks) and thread-count invariant;
//   * a value refresh of a frozen FP32 hierarchy is bitwise-identical to
//     a cold rebuild (the FP64-chain / demote-at-end replay);
//   * the FP32 preconditioner costs at most one extra GMRES iteration on
//     the canonical elliptic operator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "amg/hierarchy.hpp"
#include "common/precision.hpp"
#include "solver/gmres.hpp"
#include "test_util.hpp"

namespace exw {
namespace {

using testutil::laplace3d;
using testutil::random_vector;

// ---------------------------------------------------------------- demote --

TEST(Precision, StoreValueRoundsThroughFp32Storage) {
  const Real v = 0.1;  // not FP32-representable
  const Real s = store_value(v, Precision::kF32);
  EXPECT_NE(s, v);
  EXPECT_EQ(s, static_cast<Real>(static_cast<float>(v)));
  // Idempotent: a stored value re-stores to itself (load = exact promote).
  EXPECT_EQ(store_value(s, Precision::kF32), s);
  // FP64 storage is the identity.
  EXPECT_EQ(store_value(v, Precision::kF64), v);
}

TEST(Precision, DemoteOverflowThrows) {
  EXPECT_THROW(demote_value(1e39), Error);
  EXPECT_THROW(demote_value(-1e39), Error);
  EXPECT_NO_THROW(demote_value(3e38));  // still inside float range
}

TEST(Precision, SubnormalsFlushToSignedZero) {
  const Real pos = demote_value(1e-40);
  const Real neg = demote_value(-1e-40);
  EXPECT_EQ(pos, 0.0);
  EXPECT_FALSE(std::signbit(pos));
  EXPECT_EQ(neg, 0.0);
  EXPECT_TRUE(std::signbit(neg));
}

TEST(Precision, NanAndInfPassThrough) {
  EXPECT_TRUE(std::isnan(demote_value(std::nan(""))));
  const Real inf = std::numeric_limits<Real>::infinity();
  EXPECT_EQ(demote_value(inf), inf);
  EXPECT_EQ(demote_value(-inf), -inf);
}

TEST(Precision, BytesOfAndSplit) {
  EXPECT_EQ(bytes_of(Precision::kF64), 8.0);
  EXPECT_EQ(bytes_of(Precision::kF32), 4.0);
  double f64 = 0, f32 = 0;
  split_value_bytes(Precision::kF32, 100.0, f64, f32);
  split_value_bytes(Precision::kF64, 40.0, f64, f32);
  EXPECT_EQ(f32, 100.0);
  EXPECT_EQ(f64, 40.0);
}

// ---------------------------------------------------------- mixed V-cycle --

/// One mixed-precision V-cycle on the canonical operator, gathered dense.
RealVector mixed_vcycle_result(int nranks, const sparse::Csr& mat) {
  par::Runtime rt(nranks);
  const auto rows =
      par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks);
  const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
  amg::AmgConfig cfg;
  cfg.precision = Precision::kF32;
  amg::AmgHierarchy h(a, cfg);
  linalg::ParVector b(rt, rows), x(rt, rows);
  b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 91));
  x.fill(0.0);
  h.vcycle(b, x);
  return x.gather();
}

TEST(MixedVcycle, BitwiseDeterministicAcrossRankCounts) {
  // Determinism is pinned AT each rank count (the l1/two-stage smoother
  // splits are partition-aware, so different rank counts legitimately
  // produce different — each bitwise-reproducible — iterates; the
  // rank-count invariance of the full solve is pinned at the sim level
  // by test_integration).
  const auto mat = laplace3d(8, 0.05);
  for (int nranks : {1, 2, 4, 8}) {
    const auto got = mixed_vcycle_result(nranks, mat);
    const auto again = mixed_vcycle_result(nranks, mat);
    ASSERT_EQ(got.size(), again.size());
    EXPECT_EQ(
        std::memcmp(got.data(), again.data(), got.size() * sizeof(Real)), 0)
        << "mixed V-cycle not deterministic at " << nranks << " ranks";
  }
}

TEST(MixedVcycle, ThreadCountInvariant) {
  const auto mat = laplace3d(7, 0.05);
  const char* saved = std::getenv("EXW_NUM_THREADS");
  const std::string saved_copy = saved ? saved : "";
  setenv("EXW_NUM_THREADS", "1", 1);
  const auto ref = mixed_vcycle_result(4, mat);
  for (const char* threads : {"2", "3", "8"}) {
    setenv("EXW_NUM_THREADS", threads, 1);
    const auto got = mixed_vcycle_result(4, mat);
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(Real)),
              0)
        << "mixed V-cycle drifted at EXW_NUM_THREADS=" << threads;
  }
  if (saved) {
    setenv("EXW_NUM_THREADS", saved_copy.c_str(), 1);
  } else {
    unsetenv("EXW_NUM_THREADS");
  }
}

TEST(MixedVcycle, RefreshMatchesColdRebuildBitwise) {
  // The FP64-chain replay: refresh runs the whole Galerkin chain in FP64
  // and demotes every level once at the end, so a refreshed FP32
  // hierarchy must be bitwise-identical to one built cold from the same
  // values.
  const int nranks = 4;
  auto mat = laplace3d(7, 0.1);
  par::Runtime rt(nranks);
  const auto rows =
      par::RowPartition::even(GlobalIndex{mat.nrows().value()}, nranks);
  auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
  amg::AmgConfig cfg;
  cfg.precision = Precision::kF32;
  amg::AmgHierarchy frozen(a, cfg, /*freeze_replay=*/true);

  // Refresh through genuinely different values and back (the round trip
  // keeps the frozen coarsening applicable), then compare against a cold
  // build from the same final values.
  const auto a_mid =
      linalg::ParCsr::from_serial(rt, laplace3d(7, 0.45), rows, rows);
  frozen.refresh_values(a_mid);
  frozen.refresh_values(a);
  amg::AmgHierarchy cold(a, cfg);

  // The refreshed coarse direct solver deliberately keeps its stale
  // factorization until the next rebuild, so the pin is on the
  // value plane: every level's refreshed operator must act bitwise like
  // the cold rebuild's — the FP64-chain replay demoted at the end
  // reproduces the cold Galerkin chain exactly.
  ASSERT_EQ(frozen.num_levels(), cold.num_levels());
  for (int l = 0; l < frozen.num_levels(); ++l) {
    const auto& af = frozen.level(l).a;
    const auto& ac = cold.level(l).a;
    linalg::ParVector v(rt, af.cols()), yf(rt, af.rows()), yc(rt, af.rows());
    v.scatter(random_vector(static_cast<std::size_t>(af.global_cols().value()),
                            7 + static_cast<std::uint64_t>(l)));
    af.matvec(v, yf);
    ac.matvec(v, yc);
    const auto gf = yf.gather();
    const auto gc = yc.gather();
    EXPECT_EQ(std::memcmp(gf.data(), gc.data(), gf.size() * sizeof(Real)), 0)
        << "refreshed level " << l << " operator drifted from cold rebuild";
  }
}

TEST(MixedPrecond, AtMostOneExtraGmresIteration) {
  const auto mat = laplace3d(9, 0.02);
  auto iters = [&](Precision p) {
    par::Runtime rt(4);
    const auto rows =
        par::RowPartition::even(GlobalIndex{mat.nrows().value()}, 4);
    const auto a = linalg::ParCsr::from_serial(rt, mat, rows, rows);
    linalg::ParVector b(rt, rows), x(rt, rows);
    b.scatter(random_vector(static_cast<std::size_t>(mat.nrows()), 31));
    x.fill(0.0);
    amg::AmgConfig cfg;
    cfg.precision = p;
    solver::AmgPrecond m(a, cfg);
    solver::GmresOptions opts;
    // The paper's pressure solves run at 1e-5; 1e-6 keeps headroom while
    // staying in the regime where an FP32 preconditioner is iteration-
    // neutral (at much tighter tolerances it legitimately costs more).
    opts.rel_tol = 1e-6;
    const auto st = solver::gmres_solve(a, b, x, m, opts).lane[0];
    EXPECT_TRUE(st.converged);
    return st.iterations;
  };
  const int full = iters(Precision::kF64);
  const int mixed = iters(Precision::kF32);
  EXPECT_LE(mixed, full + 1);
}

}  // namespace
}  // namespace exw
