// Tests for the AMG hierarchy cache: the value-only refresh of a frozen
// hierarchy (bitwise against rebuilds and against cold Galerkin products),
// stale-structure detection, and the HierarchyCache reuse/refresh/rebuild
// rule.
#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "amg/cache.hpp"
#include "amg/hierarchy.hpp"
#include "amg/rap.hpp"
#include "sparse/spgemm.hpp"
#include "test_util.hpp"

namespace exw::amg {
namespace {

using testutil::laplace3d;
using testutil::random_vector;

linalg::ParCsr distribute(par::Runtime& rt, const sparse::Csr& a) {
  const auto rows =
      par::RowPartition::even(GlobalIndex{a.nrows().value()}, rt.nranks());
  return linalg::ParCsr::from_serial(rt, a, rows, rows);
}

bool same_span(std::span<const Real> a, std::span<const Real> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0);
}

/// Bitwise comparison of every rank block's diag/offd values.
bool bitwise_equal(const linalg::ParCsr& a, const linalg::ParCsr& b) {
  if (a.nranks() != b.nranks()) return false;
  for (RankId r{0}; r.value() < a.nranks(); ++r) {
    const auto& ab = a.block(r);
    const auto& bb = b.block(r);
    if (!same_span(ab.diag.vals().raw(), bb.diag.vals().raw()) ||
        !same_span(ab.offd.vals().raw(), bb.offd.vals().raw())) {
      return false;
    }
  }
  return true;
}

class AmgCacheRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(AmgCacheRankSweep, RefreshRoundTripMatchesRebuildBitwise) {
  // Build a frozen hierarchy on A(shift=0), refresh it through three
  // value changes ending back at the original values, and demand the
  // result is bitwise indistinguishable from a cold rebuild: identical
  // level operators and an identical V-cycle (which also exercises the
  // refreshed smoother splits and the retained coarse LU).
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto a0 = distribute(rt, laplace3d(8, 0.0));
  const auto a1 = distribute(rt, laplace3d(8, 0.5));
  const auto a2 = distribute(rt, laplace3d(8, 0.01));
  AmgConfig cfg;

  AmgHierarchy h(a0, cfg, /*freeze_replay=*/true);
  ASSERT_TRUE(h.frozen());
  h.refresh_values(a1);
  h.refresh_values(a2);
  h.refresh_values(a0);

  AmgHierarchy fresh(a0, cfg);
  ASSERT_EQ(h.num_levels(), fresh.num_levels());
  for (int l = 0; l < h.num_levels(); ++l) {
    EXPECT_TRUE(bitwise_equal(h.level(l).a, fresh.level(l).a))
        << "level " << l << " operator differs after refresh round trip";
  }

  linalg::ParVector b(rt, a0.rows()), x_ref(rt, a0.rows()),
      x_fresh(rt, a0.rows());
  b.scatter(random_vector(512, 17));
  x_ref.fill(0.0);
  x_fresh.fill(0.0);
  h.vcycle(b, x_ref);
  fresh.vcycle(b, x_fresh);
  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& lr = x_ref.local(r);
    const auto& lf = x_fresh.local(r);
    ASSERT_EQ(lr.size(), lf.size());
    EXPECT_TRUE(same_span(lr, lf)) << "V-cycle differs on rank " << r.value();
  }
}

TEST_P(AmgCacheRankSweep, RefreshedCoarseOperatorsMatchColdGalerkin) {
  // After a refresh with genuinely different values, every coarse operator
  // must equal the cold Galerkin product of the refreshed finer level with
  // the frozen interpolation — bitwise, not just to rounding.
  const int nranks = GetParam();
  par::Runtime rt(nranks);
  const auto a0 = distribute(rt, laplace3d(8, 0.0));
  const auto a1 = distribute(rt, laplace3d(8, 0.25));
  AmgConfig cfg;

  AmgHierarchy h(a0, cfg, /*freeze_replay=*/true);
  h.refresh_values(a1);
  ASSERT_GE(h.num_levels(), 2);
  for (int l = 0; l + 1 < h.num_levels(); ++l) {
    ASSERT_TRUE(h.level(l).has_p);
    const auto cold = galerkin_rap(h.level(l).a, h.level(l).p, cfg.spgemm);
    EXPECT_TRUE(bitwise_equal(cold, h.level(l + 1).a))
        << "transition " << l << " -> " << l + 1
        << " replay differs from the cold product";
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, AmgCacheRankSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(AmgRefresh, ThrowsOnStalePatternOrUnfrozenHierarchy) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  AmgHierarchy frozen(a, cfg, /*freeze_replay=*/true);
  // Different fine shape: the frozen plans no longer apply.
  const auto bigger = distribute(rt, laplace3d(7, 0.0));
  EXPECT_THROW(frozen.refresh_values(bigger), Error);
  // A hierarchy built without freeze_replay cannot refresh at all.
  AmgHierarchy plain(a, cfg);
  EXPECT_FALSE(plain.frozen());
  EXPECT_THROW(plain.refresh_values(a), Error);
}

TEST(AmgHierarchyComplexity, SingleLevelIsExactlyOne) {
  // With coarsening disabled the hierarchy is its own fine grid; both
  // complexity ratios must be exactly 1 (and must not divide by an empty
  // level list — the accessors are guarded).
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  cfg.max_levels = 1;
  AmgHierarchy h(a, cfg);
  ASSERT_EQ(h.num_levels(), 1);
  EXPECT_DOUBLE_EQ(h.grid_complexity(), 1.0);
  EXPECT_DOUBLE_EQ(h.operator_complexity(), 1.0);
}

TEST(HierarchyCache, KeysOnGenerationAndConfig) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  HierarchyCache cache;
  EXPECT_FALSE(cache.valid());
  EXPECT_TRUE(cache.stale(1, cfg));

  cache.rebuild(a, cfg, /*generation=*/1, /*freeze=*/true);
  EXPECT_TRUE(cache.valid());
  EXPECT_EQ(cache.generation(), 1U);
  EXPECT_FALSE(cache.stale(1, cfg));
  EXPECT_TRUE(cache.stale(2, cfg));  // graph regenerated
  AmgConfig other = cfg;
  other.strong_threshold = 0.5;
  EXPECT_TRUE(cache.stale(1, other));  // knob changed
}

TEST(HierarchyCache, UpdateReusesUnchangedValuesAndRefreshesChangedOnes) {
  // The update rule: stale key -> rebuild; bitwise-unchanged values ->
  // reuse (no rebuild, no refresh); changed values -> refresh, however
  // many solves ran on the hierarchy since its rebuild.
  par::Runtime rt(4);
  const auto a0 = distribute(rt, laplace3d(6, 0.0));
  const auto a1 = distribute(rt, laplace3d(6, 0.1));
  const auto a0_copy = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  HierarchyCache cache;

  EXPECT_EQ(cache.update(a0, cfg, 1), CacheAction::kRebuild);
  EXPECT_TRUE(cache.hierarchy().frozen());
  // Equal values in a different matrix object still match.
  EXPECT_TRUE(cache.matches(a0_copy));
  EXPECT_FALSE(cache.matches(a1));
  EXPECT_EQ(cache.update(a0_copy, cfg, 1), CacheAction::kReuse);
  EXPECT_EQ(cache.update(a1, cfg, 1), CacheAction::kRefresh);
  // The refresh moved the snapshot: a1 now reuses, a0 no longer matches.
  EXPECT_TRUE(cache.matches(a1));
  EXPECT_FALSE(cache.matches(a0));
  EXPECT_EQ(cache.update(a1, cfg, 1), CacheAction::kReuse);

  // Alternating values refresh on every call: no solve count or
  // iteration history turns a value change into a rebuild.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(cache.update(i % 2 == 0 ? a0 : a1, cfg, 1),
              CacheAction::kRefresh)
        << "update " << i;
  }

  // A stale key rebuilds even when the values match.
  EXPECT_EQ(cache.update(a1, cfg, 2), CacheAction::kRebuild);
  AmgConfig other = cfg;
  other.strong_threshold = 0.5;
  EXPECT_EQ(cache.update(a1, other, 2), CacheAction::kRebuild);
  EXPECT_EQ(cache.update(a1, other, 2), CacheAction::kReuse);
}

TEST(HierarchyCache, UnfrozenRebuildNeverMatches) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  HierarchyCache cache;
  EXPECT_FALSE(cache.matches(a));  // nothing cached yet
  cache.rebuild(a, cfg, 1, /*freeze=*/false);
  EXPECT_FALSE(cache.matches(a));
}

TEST(HierarchyCache, RefreshWithoutFreezeThrows) {
  par::Runtime rt(2);
  const auto a = distribute(rt, laplace3d(6, 0.0));
  AmgConfig cfg;
  HierarchyCache cache;
  cache.rebuild(a, cfg, 1, /*freeze=*/false);
  EXPECT_THROW(cache.refresh(a), Error);
}

}  // namespace
}  // namespace exw::amg
