#pragma once
/// \file tags.hpp
/// Central registry of every point-to-point message tag in the tree.
///
/// A tag names a (src, dst, tag) mailbox channel in par::Transport, and
/// two subsystems reusing one integer silently cross their streams: the
/// receiver deserializes the other protocol's bytes and the failure
/// surfaces far from the collision (the classic MPI tag-collision bug).
/// Before this registry each subsystem kept private `constexpr int`
/// tags in its .cpp and uniqueness rested on a code-review convention.
///
/// Rules, machine-checked on two fronts:
///   * every tag is a named constant here — raw integer literals at
///     send/recv call sites are rejected by tools/lint.py;
///   * the registry below is compile-time checked for duplicates
///     (static_assert), so a collision cannot build;
///   * with EXW_CHECKS=ON, Transport::send/recv additionally reject
///     unregistered tags at runtime (par/comm_audit.hpp), so a tag
///     cannot bypass the registry by arithmetic.
///
/// Ranges (a reading aid, not a mechanism — uniqueness is global):
///   100-199  linalg      (halo exchange, remote-row fetch)
///   200-299  assembly    (cold triple routing, warm plan refills)
///   900-999  tests       (tests/ fixtures; never used by src/)

#include <cstddef>

namespace exw::par::tags {

// --- linalg: ParCsr halo exchange and remote-row fetch (parcsr.cpp) ------
inline constexpr int kHaloValues = 101;   ///< matvec/fused halo payloads
inline constexpr int kRowRequest = 102;   ///< remote-row fetch: wanted ids
inline constexpr int kRowHeader = 103;    ///< remote-row fetch: row sizes
inline constexpr int kRowCols = 104;      ///< remote-row fetch: columns
inline constexpr int kRowVals = 105;      ///< remote-row fetch: values

// --- assembly: cold triple routing (global.cpp) --------------------------
inline constexpr int kCooRows = 201;      ///< shared matrix triples: rows
inline constexpr int kCooCols = 202;      ///< shared matrix triples: cols
inline constexpr int kCooVals = 203;      ///< shared matrix triples: values
inline constexpr int kRhsRows = 204;      ///< shared RHS pairs: rows
inline constexpr int kRhsVals = 205;      ///< shared RHS pairs: values

// --- assembly: warm value-only plan refills (plan.cpp). Distinct from
// the cold 201-205 channels so a warm refill can never consume a cold
// assembly's triples by accident. -----------------------------------------
inline constexpr int kPlanMatVals = 206;  ///< frozen-slice matrix values
inline constexpr int kPlanRhsVals = 207;  ///< frozen-slice RHS values

// --- tests/ fixtures. Production code must never use these. --------------
inline constexpr int kTestPing = 901;     ///< generic one-shot channel
inline constexpr int kTestFifo = 902;     ///< per-channel FIFO ordering
inline constexpr int kTestRing = 903;     ///< ring-neighbor exchanges
inline constexpr int kTestRelay = 904;    ///< cross-rank relay fixtures
inline constexpr int kTestEmpty = 905;    ///< recv-with-no-message probes
inline constexpr int kTestSelf = 906;     ///< self-send (dst == src)
inline constexpr int kTestRows = 907;     ///< wide-index row payloads
inline constexpr int kTestVals = 908;     ///< wide-index value payloads
inline constexpr int kTestAudit = 909;    ///< comm-audit unit fixtures

/// One registry row: the tag and the human-readable channel name used in
/// audit diagnostics ("tag 206 [plan-mat-vals]").
struct Entry {
  int tag;
  const char* name;
};

/// Every tag in the tree. Adding a constant above without a row here
/// leaves it unregistered: tools/lint.py accepts it (it is a named
/// constant) but the runtime audit rejects the first send using it, so
/// the registry cannot silently go stale.
inline constexpr Entry kRegistry[] = {
    {kHaloValues, "halo-values"},
    {kRowRequest, "row-request"},
    {kRowHeader, "row-header"},
    {kRowCols, "row-cols"},
    {kRowVals, "row-vals"},
    {kCooRows, "coo-rows"},
    {kCooCols, "coo-cols"},
    {kCooVals, "coo-vals"},
    {kRhsRows, "rhs-rows"},
    {kRhsVals, "rhs-vals"},
    {kPlanMatVals, "plan-mat-vals"},
    {kPlanRhsVals, "plan-rhs-vals"},
    {kTestPing, "test-ping"},
    {kTestFifo, "test-fifo"},
    {kTestRing, "test-ring"},
    {kTestRelay, "test-relay"},
    {kTestEmpty, "test-empty"},
    {kTestSelf, "test-self"},
    {kTestRows, "test-rows"},
    {kTestVals, "test-vals"},
    {kTestAudit, "test-audit"},
};

inline constexpr std::size_t kRegistrySize =
    sizeof(kRegistry) / sizeof(kRegistry[0]);

namespace detail {

/// Compile-time duplicate scan (N is small; O(N^2) is free at constexpr).
template <std::size_t N>
constexpr bool all_unique(const Entry (&entries)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (entries[i].tag == entries[j].tag) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace detail

// The uniqueness contract: a tag collision is a build error, not a
// runtime mystery. If this fires, two subsystems claimed one channel.
static_assert(detail::all_unique(kRegistry),
              "par::tags registry contains a duplicate tag — every "
              "(src, dst, tag) channel family needs its own integer");

/// True if `tag` is a registered channel.
constexpr bool registered(int tag) {
  for (const Entry& e : kRegistry) {
    if (e.tag == tag) {
      return true;
    }
  }
  return false;
}

/// Channel name for diagnostics; "unregistered" if the tag is unknown.
constexpr const char* name(int tag) {
  for (const Entry& e : kRegistry) {
    if (e.tag == tag) {
      return e.name;
    }
  }
  return "unregistered";
}

}  // namespace exw::par::tags
