#pragma once
/// \file multivector.hpp
/// Distributed multi-vector: ncomp component lanes over one row
/// partition, stored SoA (per rank, lane c occupies the contiguous
/// plane [c*n, (c+1)*n) of one value array).
///
/// This is the vector half of the fused momentum path: the u/v/w
/// systems share one sparsity pattern, so their GMRES state is carried
/// as 3-lane multi-vectors and every BLAS-1 operation runs once over
/// all lanes — one kernel launch per rank instead of one per component,
/// and one allreduce carrying all lanes' partial reductions instead of
/// one collective per component. Because Runtime::allreduce_sum_vec
/// reduces element-wise in rank order, each lane's reduction result is
/// bitwise-identical to the per-component ParVector operation — the
/// property the fused-vs-sequential equivalence tests pin down.
///
/// Ops come in two groups: fused all-lane ops (optionally masked, so
/// converged GMRES components stop participating without perturbing
/// their lanes), and single-lane ops for per-component epilogues
/// (back-substitution, true-residual confirmation).

#include <cstdint>
#include <span>
#include <vector>

#include "common/precision.hpp"
#include "common/types.hpp"
#include "par/contract.hpp"
#include "par/partition.hpp"
#include "par/runtime.hpp"

namespace exw::linalg {

class ParVector;

class ParMultiVector {
 public:
  ParMultiVector(par::Runtime& rt, par::RowPartition rows, std::size_t ncomp);

  std::size_t ncomp() const { return ncomp_; }
  const par::RowPartition& rows() const { return rows_; }
  GlobalIndex global_size() const { return rows_.global_size(); }
  int nranks() const { return rows_.nranks(); }
  par::Runtime& runtime() const { return *rt_; }

  /// Rank r's full SoA block (size ncomp * local rows). Inside a
  /// parallel rank region only rank r's own body may take the mutable
  /// view (contract-checked).
  RealVector& local(RankId r) {
    EXW_CONTRACT_CHECK_WRITE(r, "ParMultiVector::local(r)");
    return local_[static_cast<std::size_t>(r)];
  }
  const RealVector& local(RankId r) const {
    return local_[static_cast<std::size_t>(r)];
  }

  /// One lane's contiguous plane of rank r's block.
  std::span<Real> lane_span(RankId r, std::size_t lane);
  std::span<const Real> lane_span(RankId r, std::size_t lane) const;

  /// Element access by (lane, global row) — test/setup convenience, not
  /// charged.
  Real& at(std::size_t lane, GlobalIndex g);
  Real at(std::size_t lane, GlobalIndex g) const;

  /// Storage precision of the value plane — same contract as
  /// ParVector::set_value_precision (stores round through FP32 when
  /// tagged, contents demoted at tagging, charges priced per precision).
  Precision value_precision() const { return prec_; }
  void set_value_precision(Precision p);

  // --- fused charged operations (one kernel per rank, one collective
  // --- per reduction, regardless of lane count) --------------------------

  void fill(Real value);
  void copy_from(const ParMultiVector& other);
  /// Lane c *= alpha[c]. Lanes with mask[c] == 0 are skipped entirely
  /// (not even multiplied by their alpha — a converged component's lane
  /// must stay bitwise-frozen). An empty mask means all lanes.
  void scale_lanes(std::span<const Real> alpha,
                   std::span<const std::uint8_t> mask = {});
  /// Lane c += alpha[c] * (lane c of x), same masking rule.
  void axpy_lanes(std::span<const Real> alpha, const ParMultiVector& x,
                  std::span<const std::uint8_t> mask = {});
  /// Per-lane dot products against `other`, one batched allreduce.
  std::vector<double> dots(const ParMultiVector& other) const;
  /// Per-lane 2-norms, one batched allreduce.
  std::vector<double> norms() const;

  // --- single-lane charged operations ------------------------------------

  void lane_fill(std::size_t lane, Real value);
  void lane_axpy(std::size_t lane, Real alpha, const ParMultiVector& x);
  double lane_norm2(std::size_t lane) const;
  /// Copy a ParVector into / out of one lane (streaming copy charge).
  void set_lane(std::size_t lane, const ParVector& src);
  void extract_lane(std::size_t lane, ParVector& dst) const;

 private:
  std::size_t local_n(RankId r) const {
    return static_cast<std::size_t>(rows_.local_size(r));
  }

  par::Runtime* rt_ = nullptr;
  par::RowPartition rows_;
  std::size_t ncomp_ = 0;
  std::vector<RealVector> local_;
  Precision prec_ = Precision::kF64;
};

}  // namespace exw::linalg
