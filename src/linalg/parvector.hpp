#pragma once
/// \file parvector.hpp
/// Distributed vector in 1-D block-row layout (hypre ParVector analogue),
/// carrying one or more component lanes.
///
/// Storage is per simulated rank; operations are driven globally and
/// charge the cost model: BLAS-1 kernels per rank plus one allreduce per
/// reduction (the collective count is what the one-reduce GMRES of the
/// paper §4.2 optimizes, so it must be faithful).
///
/// A vector holds `ncomp` lanes over one row partition, stored SoA: per
/// rank, lane c occupies the contiguous plane [c*n, (c+1)*n) of one value
/// array. One lane is the ordinary vector. Several lanes carry the u/v/w
/// momentum systems, which share one sparsity pattern: every kernel runs
/// once over all lanes (one launch per rank, the index structure read
/// once) and every reduction carries all lanes' partials in one
/// allreduce. Runtime::allreduce_sum_vec reduces element-wise in rank
/// order, and every kernel computes lane c from lane c alone, so each
/// lane's result is bitwise-identical to a 1-lane run on that lane — the
/// property tests/test_fused.cpp pins down.
///
/// lanes(first, count) returns a view: a vector over a window of another
/// vector's lanes that shares its storage, so per-lane work (a GMRES
/// lane's epilogue) runs in place with the 1-lane charges and no copies.

#include <cstdint>
#include <span>
#include <vector>

#include "common/precision.hpp"
#include "common/types.hpp"
#include "par/contract.hpp"
#include "par/partition.hpp"
#include "par/runtime.hpp"

namespace exw::linalg {

/// Precomputed in-place RHS-refill map for one rank (the Algorithm 2
/// analogue of ValueFillPlan, built by assembly::AssemblyPlan). Received
/// contribution u gathers recv[perm[seg_ptr[u] .. seg_ptr[u+1])] in
/// ascending permutation order — reduce_by_key's addend order, so
/// refills are bitwise-identical to the cold path — and scatter-adds
/// into local row dest[u].
struct VectorFillPlan {
  std::vector<std::size_t> perm;     ///< sorted position -> recv slot
  std::vector<std::size_t> seg_ptr;  ///< unique recv row -> range in perm
  std::vector<LocalIndex> dest;      ///< unique recv row -> local row
};

class ParVector {
 public:
  ParVector() = default;
  ParVector(par::Runtime& rt, par::RowPartition rows, std::size_t ncomp = 1);

  /// Copies are deep: a copy of a view owns its lanes.
  ParVector(const ParVector& other);
  ParVector& operator=(const ParVector& other);
  ParVector(ParVector&&) noexcept = default;
  ParVector& operator=(ParVector&&) noexcept = default;
  ~ParVector() = default;

  const par::RowPartition& rows() const { return rows_; }
  GlobalIndex global_size() const { return rows_.global_size(); }
  int nranks() const { return rows_.nranks(); }
  std::size_t ncomp() const { return ncomp_; }
  par::Runtime& runtime() const { return *rt_; }

  /// View of lanes [first, first + count), sharing this vector's storage
  /// and precision tag. The view must not outlive the vector it looks
  /// into. Constness is shallow, as for std::span: the const overload
  /// returns a const view.
  ParVector lanes(std::size_t first, std::size_t count = 1);
  const ParVector lanes(std::size_t first, std::size_t count = 1) const;

  /// Rank r's block: every lane's plane, ncomp * local rows values.
  /// Inside a parallel rank region only rank r's own body may take the
  /// mutable view (contract-checked).
  std::span<Real> local(RankId r) {
    EXW_CONTRACT_CHECK_WRITE(r, "ParVector::local(r)");
    return block(r);
  }
  std::span<const Real> local(RankId r) const { return block(r); }

  /// One lane's plane of rank r's block.
  std::span<Real> lane_span(RankId r, std::size_t lane) {
    return local(r).subspan(lane_offset(r, lane), local_n(r));
  }
  std::span<const Real> lane_span(RankId r, std::size_t lane) const {
    return local(r).subspan(lane_offset(r, lane), local_n(r));
  }

  /// Element access by global index (test/setup convenience; not
  /// charged, and a mutable at() bypasses the FP32 store-rounding
  /// invariant — charged operations below maintain it).
  Real& at(GlobalIndex g, std::size_t lane = 0);
  Real at(GlobalIndex g, std::size_t lane = 0) const;

  /// Storage precision of the value plane (DESIGN.md §16). Tagging a
  /// vector kF32 demotes its current contents and makes every charged
  /// store round through float (store_value), so the invariant "an FP32
  /// vector holds only FP32-representable values" holds and float halo
  /// serialization of its data is lossless. Untagged vectors are plain
  /// FP64. Tagging is a cold setup operation and is not charged.
  Precision value_precision() const { return prec_; }
  void set_value_precision(Precision p);

  /// Warm-path refill of rank r's local block (1 lane): copy the dense
  /// owned values, then scatter-add the received contributions reduced
  /// through the frozen plan (Algorithm 2's sort/reduce replayed as a
  /// pure value pipeline; no sort, no allocation). Inside a parallel
  /// rank region only rank r's own body may call it (contract-checked).
  void set_values_from_plan(RankId r, std::span<const Real> owned,
                            const VectorFillPlan& plan,
                            std::span<const Real> recv);

  // --- charged operations: one kernel per rank over all lanes, one
  // --- collective per reduction regardless of lane count ---------------

  void fill(Real value);
  /// this = other (same lane count); an FP32 destination demotes.
  void copy_from(const ParVector& other);
  /// Lane c *= alpha[c]. Lanes with mask[c] == 0 are skipped entirely
  /// (not even multiplied by their alpha — a converged GMRES lane must
  /// stay bitwise-frozen). An empty mask means all lanes.
  void scale_lanes(std::span<const Real> alpha,
                   std::span<const std::uint8_t> mask = {});
  /// Lane c += alpha[c] * (lane c of x), same masking rule.
  void axpy_lanes(std::span<const Real> alpha, const ParVector& x,
                  std::span<const std::uint8_t> mask = {});
  /// Per-lane dot products against `other`, one batched allreduce.
  std::vector<double> dots(const ParVector& other) const;
  /// Per-lane 2-norms, one batched allreduce.
  std::vector<double> norms() const;

  // --- 1-lane forms (EXW_REQUIRE ncomp() == 1) ---------------------------

  void scale(Real alpha) { scale_lanes(std::span<const Real>(&alpha, 1)); }
  /// this += alpha * x
  void axpy(Real alpha, const ParVector& x) {
    axpy_lanes(std::span<const Real>(&alpha, 1), x);
  }
  /// this = alpha * this + x  (useful for smoother updates)
  void aypx(Real alpha, const ParVector& x);
  double dot(const ParVector& other) const;
  double norm2() const;

  /// Gather to one dense global vector (1 lane; tests only, not charged).
  RealVector gather() const;
  /// Scatter from a dense global vector (1 lane; tests/setup, not
  /// charged).
  void scatter(const RealVector& global);

 private:
  std::size_t local_n(RankId r) const {
    return static_cast<std::size_t>(rows_.local_size(r));
  }
  std::size_t lane_offset(RankId r, std::size_t lane) const;
  std::span<Real> block(RankId r) const {
    const std::size_t n = local_n(r);
    return std::span<Real>(data_[static_cast<std::size_t>(r)])
        .subspan(first_ * n, ncomp_ * n);
  }

  par::Runtime* rt_ = nullptr;
  par::RowPartition rows_;
  std::size_t ncomp_ = 1;
  /// First lane of the storage this object sees (non-zero only in views).
  std::size_t first_ = 0;
  /// Per-rank storage; empty in a view.
  std::vector<RealVector> own_;
  /// Per-rank storage this object reads and writes: own_.data(), or the
  /// viewed vector's. A move keeps own_'s buffer, so the pointer (and
  /// any view taken before) stays valid.
  RealVector* data_ = nullptr;
  Precision prec_ = Precision::kF64;
};

}  // namespace exw::linalg
