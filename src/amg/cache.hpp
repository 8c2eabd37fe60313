#pragma once
/// \file cache.hpp
/// AMG hierarchy cache: setup's structural outputs frozen once, value-only
/// refreshes every Picard iteration after that.
///
/// AMG setup — SoC, PMIS, interpolation, and the Galerkin SpGEMMs — is a
/// pure function of the fine matrix's *pattern* plus its values. Inside a
/// time step the pressure-Poisson pattern is frozen (the equation graph
/// runs once, PR "assembly plan" reuses it), so every Picard solve after
/// the first re-derives the same coarsening, the same interpolation
/// pattern and the same product structures. The cache freezes those once
/// (AmgHierarchy's freeze_replay mode records a RapRecord per level and
/// converts it into a LevelReplay here) and then replays frozen
/// ProductPlans to refill every level's values in place: no graph
/// traversal, no hashing, no steady-state allocation, bitwise-identical
/// to re-running setup against the frozen coarsening. This is the setup
/// half of the algorithmic-scalability program of "Alya towards Exascale"
/// (PAPERS.md) applied to our §4 pressure solve.
///
/// What is frozen vs refilled per level is documented in DESIGN.md §12,
/// together with the update rule HierarchyCache::update applies: rebuild
/// on a stale key, reuse the hierarchy untouched while the fine values are
/// bitwise unchanged, refresh it in place otherwise.

#include <cstdint>
#include <memory>
#include <vector>

#include "amg/config.hpp"
#include "amg/hierarchy.hpp"
#include "amg/rap.hpp"
#include "assembly/plan.hpp"
#include "linalg/parcsr.hpp"

namespace exw::amg {

/// Frozen value-replay state for one level transition l -> l+1: the
/// RapRecord's term plans plus the AssemblyPlan that turns the replayed
/// coarse COO triples into the coarse ParCsr's values in place.
struct LevelReplay {
  RapRecord record;
  assembly::AssemblyPlan plan;
  /// AssemblyPlan views require all four pieces; RAP has no RHS, so dense
  /// zero vectors and empty sparse adds back the RHS half permanently.
  std::vector<RealVector> rhs_owned;
  std::vector<sparse::CooVector> rhs_shared;
  std::vector<assembly::SystemView> views;
  /// Per-rank warm scratch, sized on the first refresh and reused (rank
  /// r's body touches only entry r, per the threading contract).
  struct Scratch {
    RealVector a_flat;   ///< [diag vals | offd vals] of the fine level
    RealVector ap_vals;  ///< replayed intermediate AP values
  };
  std::vector<Scratch> scratch;
};

/// Convert a RapRecord into a LevelReplay: build the coarse-operator
/// AssemblyPlan over the frozen normalized triples (charged like the one
/// cold structural pass it is) and wire up the views.
std::unique_ptr<LevelReplay> freeze_level_replay(par::Runtime& rt,
                                                 RapRecord&& record,
                                                 const par::RowPartition& coarse);

/// Replay one transition: gather the fine level's values, run the frozen
/// AP and outer-product term plans, and refill `coarse_a`'s values via the
/// AssemblyPlan. Streaming charges only — never the setup SpGEMM or sort
/// charges (see amg/charges.hpp).
void replay_level(par::Runtime& rt, LevelReplay& lr,
                  const linalg::ParCsr& fine_a, linalg::ParCsr& coarse_a);

/// What HierarchyCache::update did to bring the hierarchy up to date.
enum class CacheAction { kReuse, kRefresh, kRebuild };

/// Pressure-preconditioner cache: one AmgHierarchy kept across Picard
/// solves, keyed on (equation-graph generation, AmgConfig). update() says
/// which of reuse / refresh / rebuild it did, so the caller can count them.
class HierarchyCache {
 public:
  bool valid() const { return valid_; }
  std::uint64_t generation() const { return generation_; }
  const AmgConfig& config() const { return cfg_; }
  AmgHierarchy& hierarchy() { return *hierarchy_; }

  /// True when the key no longer matches (invalid cache, new graph
  /// generation, or changed AMG configuration).
  bool stale(std::uint64_t generation, const AmgConfig& cfg) const {
    return !valid_ || generation_ != generation || !(cfg_ == cfg);
  }

  /// Bring the hierarchy up to date with `a`, checked in this order:
  ///   * stale key -> rebuild;
  ///   * values bitwise equal to the last rebuild/refresh (matches) ->
  ///     reuse, touching nothing — a rebuild or refresh from identical
  ///     values would reproduce the same hierarchy bitwise;
  ///   * otherwise -> value-only refresh.
  /// Rebuilds always freeze, so later solves can refresh. A new graph
  /// generation forces a rebuild, so a hierarchy refreshes at most until
  /// the next graph change.
  CacheAction update(const linalg::ParCsr& a, const AmgConfig& cfg,
                     std::uint64_t generation);

  /// Structural rebuild from `a`. `freeze` additionally records the
  /// replay plans so later solves can refresh() instead, and snapshots
  /// the fine values for matches().
  void rebuild(const linalg::ParCsr& a, const AmgConfig& cfg,
               std::uint64_t generation, bool freeze);

  /// Value-only refresh; requires a frozen, valid hierarchy with an
  /// unchanged fine structure (throws exw::Error otherwise).
  void refresh(const linalg::ParCsr& a);

  /// True when `a`'s FP64 diag|offd values are bitwise equal to those the
  /// frozen hierarchy was last rebuilt or refreshed from. One value-stream
  /// read per rank plus a one-word allreduce so every rank takes the same
  /// branch; allocation-free. Does not check the key (see stale()).
  bool matches(const linalg::ParCsr& a);

 private:
  std::unique_ptr<AmgHierarchy> hierarchy_;
  AmgConfig cfg_;
  std::uint64_t generation_ = 0;
  bool valid_ = false;
  /// Per-rank [diag | offd] FP64 values of the last rebuild/refresh; sized
  /// by a freezing rebuild, empty otherwise (matches() is then false).
  std::vector<RealVector> snapshot_;
  /// Per-rank mismatch flags reduced by matches(), sized with snapshot_.
  std::vector<GlobalIndex> mismatch_;

  /// Copy `a`'s values into the already-sized snapshot (one value stream
  /// per rank).
  void store_snapshot(const linalg::ParCsr& a);
};

}  // namespace exw::amg
