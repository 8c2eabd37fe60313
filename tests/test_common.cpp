// Unit tests: common types, strong index ids, counter RNG, error handling.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace exw {
namespace {

// ---------------------------------------------------------------------------
// Compile-time contract of the index-safety layer. Each static_assert is a
// negative-compile test: the expression it checks used to be an accepted
// (and bug-prone) integer conversion before the StrongId migration.
// ---------------------------------------------------------------------------

// Construction from raw integers is explicit, never implicit.
static_assert(std::is_constructible_v<GlobalIndex, std::int64_t>);
static_assert(std::is_constructible_v<LocalIndex, int>);
static_assert(!std::is_convertible_v<std::int64_t, GlobalIndex>);
static_assert(!std::is_convertible_v<int, LocalIndex>);
static_assert(!std::is_convertible_v<int, RankId>);

// No conversion between index spaces, explicit or implicit. The only
// gateway is checked_narrow<To>().
static_assert(!std::is_constructible_v<LocalIndex, GlobalIndex>);
static_assert(!std::is_constructible_v<GlobalIndex, LocalIndex>);
static_assert(!std::is_constructible_v<RankId, LocalIndex>);
static_assert(!std::is_constructible_v<EntryOffset, GlobalIndex>);
static_assert(!std::is_assignable_v<LocalIndex&, GlobalIndex>);
static_assert(!std::is_assignable_v<GlobalIndex&, std::int64_t>);

// Ids do not leak back to arithmetic types implicitly.
static_assert(!std::is_convertible_v<GlobalIndex, std::int64_t>);
static_assert(!std::is_convertible_v<LocalIndex, int>);
static_assert(!std::is_convertible_v<GlobalIndex, double>);

template <class A, class B>
concept EqComparable = requires(A a, B b) { a == b; };
template <class A, class B>
concept Ordered = requires(A a, B b) { a < b; };
template <class A, class B>
concept Addable = requires(A a, B b) { a + b; };
template <class A, class B>
concept Multipliable = requires(A a, B b) { a* b; };

// Comparisons are same-type only: no cross-space, no bare-integer.
static_assert(EqComparable<GlobalIndex, GlobalIndex>);
static_assert(Ordered<LocalIndex, LocalIndex>);
static_assert(!EqComparable<GlobalIndex, LocalIndex>);
static_assert(!EqComparable<LocalIndex, RankId>);
static_assert(!EqComparable<GlobalIndex, int>);
static_assert(!Ordered<GlobalIndex, std::int64_t>);
static_assert(!Ordered<EntryOffset, LocalIndex>);

// Arithmetic: same-space distances and raw integral counts only.
static_assert(Addable<GlobalIndex, GlobalIndex>);
static_assert(Addable<GlobalIndex, int>);
static_assert(Addable<int, GlobalIndex>);
static_assert(!Addable<GlobalIndex, LocalIndex>);
static_assert(!Addable<EntryOffset, GlobalIndex>);
// No multiplication in any index space (a product of indices is not an
// index; lattice flattening must drop to .value()).
static_assert(!Multipliable<GlobalIndex, int>);
static_assert(!Multipliable<LocalIndex, LocalIndex>);

// IndexedSpan subscripts accept exactly their own index space.
template <class S, class I>
concept Subscriptable = requires(S s, I i) { s[i]; };
static_assert(Subscriptable<IndexedSpan<LocalIndex, Real>, LocalIndex>);
static_assert(!Subscriptable<IndexedSpan<LocalIndex, Real>, int>);
static_assert(!Subscriptable<IndexedSpan<LocalIndex, Real>, std::size_t>);
static_assert(!Subscriptable<IndexedSpan<LocalIndex, Real>, GlobalIndex>);
static_assert(!Subscriptable<IndexedSpan<LocalIndex, Real>, EntryOffset>);
static_assert(Subscriptable<IndexedSpan<EntryOffset, const LocalIndex>, EntryOffset>);
static_assert(!Subscriptable<IndexedSpan<EntryOffset, const LocalIndex>, LocalIndex>);

// Representation widths are part of the contract (paper-scale meshes need
// 64-bit global ids and 64-bit entry offsets).
static_assert(std::is_same_v<GlobalIndex::rep_type, std::int64_t>);
static_assert(std::is_same_v<LocalIndex::rep_type, std::int32_t>);
static_assert(std::is_same_v<RankId::rep_type, std::int32_t>);
static_assert(std::is_same_v<EntryOffset::rep_type, std::int64_t>);

TEST(StrongId, ArithmeticAndComparisonBasics) {
  GlobalIndex g{10};
  EXPECT_EQ((g + 5).value(), 15);
  EXPECT_EQ((g - 3).value(), 7);
  EXPECT_EQ((g + GlobalIndex{2}).value(), 12);
  EXPECT_EQ((g - GlobalIndex{4}).value(), 6);
  ++g;
  EXPECT_EQ(g, GlobalIndex{11});
  g--;
  EXPECT_EQ(g, GlobalIndex{10});
  g += 5;
  g -= GlobalIndex{1};
  EXPECT_EQ(g, GlobalIndex{14});
  EXPECT_LT(GlobalIndex{3}, GlobalIndex{4});
  EXPECT_EQ(static_cast<std::size_t>(LocalIndex{7}), std::size_t{7});
}

TEST(StrongId, HashAndToString) {
  std::unordered_set<GlobalIndex> s;
  s.insert(GlobalIndex{1});
  s.insert(GlobalIndex{1});
  s.insert(GlobalIndex{2});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(to_string(LocalIndex{-1}), "-1");
}

TEST(StrongId, SentinelSemantics) {
  EXPECT_EQ(kInvalidGlobal, GlobalIndex{-1});
  EXPECT_EQ(kInvalidLocal, LocalIndex{-1});
  EXPECT_NE(kInvalidGlobal, GlobalIndex{0});
  EXPECT_NE(kInvalidLocal, LocalIndex{0});
  // Sentinels order before every valid index, so `< Id{0}` tests work.
  EXPECT_LT(kInvalidGlobal, GlobalIndex{0});
  EXPECT_LT(kInvalidLocal, LocalIndex{0});
}

TEST(CheckedNarrow, PreservesInRangeValues) {
  EXPECT_EQ(checked_narrow<LocalIndex>(GlobalIndex{123}), LocalIndex{123});
  EXPECT_EQ(checked_narrow<GlobalIndex>(LocalIndex{7}), GlobalIndex{7});
  EXPECT_EQ(checked_narrow<LocalIndex>(std::int64_t{42}), LocalIndex{42});
  EXPECT_EQ(checked_narrow<std::int32_t>(GlobalIndex{9}), 9);
  EXPECT_EQ(checked_narrow<LocalIndex>(std::size_t{31}), LocalIndex{31});
  // Largest value that fits a 32-bit local id round-trips exactly.
  const std::int64_t max32 = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(checked_narrow<LocalIndex>(GlobalIndex{max32}).value(), max32);
}

#if EXW_INDEX_CHECKS_ENABLED
TEST(CheckedNarrow, ThrowsOnOverflow) {
  const GlobalIndex big{(std::int64_t{1} << 40) + 3};
  EXPECT_THROW(checked_narrow<LocalIndex>(big), Error);
  EXPECT_THROW(checked_narrow<std::int32_t>(big), Error);
  const std::int64_t just_over =
      std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;
  EXPECT_THROW(checked_narrow<LocalIndex>(GlobalIndex{just_over}), Error);
}

TEST(CheckedNarrow, RejectsSentinelsAndNegatives) {
  // An invalid id must never be narrowed into another space: -1 in the
  // source space is not -1 "not found" in the target space.
  EXPECT_THROW(checked_narrow<LocalIndex>(kInvalidGlobal), Error);
  EXPECT_THROW(checked_narrow<GlobalIndex>(kInvalidLocal), Error);
  EXPECT_THROW(checked_narrow<LocalIndex>(std::int64_t{-7}), Error);
  // Even a widening conversion rejects negatives: only valid indices pass.
  EXPECT_THROW(checked_narrow<EntryOffset>(LocalIndex{-2}), Error);
}
#else
TEST(CheckedNarrow, IsBareCastWhenChecksOff) {
  // EXW_CHECKS=OFF: the gateway compiles to a bare cast and never
  // throws; value bits follow two's-complement truncation.
  EXPECT_NO_THROW(checked_narrow<LocalIndex>(kInvalidGlobal));
  EXPECT_EQ(checked_narrow<LocalIndex>(GlobalIndex{123}), LocalIndex{123});
}
#endif

TEST(IndexedSpan, SubscriptsAndRawExit) {
  std::vector<Real> v{1.0, 2.0, 3.0};
  IndexedSpan<LocalIndex, Real> s(v);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[LocalIndex{1}], 2.0);
  s[LocalIndex{2}] = 9.0;
  EXPECT_DOUBLE_EQ(v[2], 9.0);
  EXPECT_EQ(s.raw().data(), v.data());
  IndexedSpan<LocalIndex, const Real> cs(v);
  EXPECT_DOUBLE_EQ(cs.front(), 1.0);
  EXPECT_DOUBLE_EQ(cs.back(), 9.0);
}

TEST(StrongId, CooVectorsAreBitwiseStable) {
  // StrongId is a trivially-copyable wrapper over its rep: byte views used
  // by the transport must see exactly the raw integer bits.
  static_assert(std::is_trivially_copyable_v<GlobalIndex>);
  static_assert(sizeof(GlobalIndex) == sizeof(std::int64_t));
  const GlobalIndex g{(std::int64_t{1} << 40) + 17};
  std::int64_t raw = 0;
  std::memcpy(&raw, &g, sizeof(raw));
  EXPECT_EQ(raw, g.value());
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  const Vec3 s = a + b;
  EXPECT_DOUBLE_EQ(s.x, 5);
  EXPECT_DOUBLE_EQ(s.y, 7);
  EXPECT_DOUBLE_EQ(s.z, 9);
  EXPECT_DOUBLE_EQ(a.dot(b), 32);
  const Vec3 c = a.cross(b);
  EXPECT_DOUBLE_EQ(c.x, -3);
  EXPECT_DOUBLE_EQ(c.y, 6);
  EXPECT_DOUBLE_EQ(c.z, -3);
  EXPECT_NEAR((Vec3{3, 4, 0}.norm()), 5.0, 1e-15);
}

TEST(Vec3, CrossIsOrthogonal) {
  const Vec3 a{1.3, -0.2, 2.1}, b{0.4, 1.9, -0.7};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, Uniform01Range) {
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const double u = uniform01(42, i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01ApproximatelyUniform) {
  // Mean of U(0,1) is 0.5; with 1e5 samples the error is ~1e-3.
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += uniform01(9, static_cast<std::uint64_t>(i));
  }
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
}

TEST(Rng, CounterValuesDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(hash64(i));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, SeedChangesSequence) {
  EXPECT_NE(uniform01(1, 0), uniform01(2, 0));
}

TEST(Error, RequireThrowsWithContext) {
  try {
    EXW_REQUIRE(1 == 2, "impossible arithmetic");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("impossible arithmetic"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(EXW_REQUIRE(2 + 2 == 4, "sanity"));
}

}  // namespace
}  // namespace exw
