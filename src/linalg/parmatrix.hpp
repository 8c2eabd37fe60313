#pragma once
/// \file parmatrix.hpp
/// Storage-format seam of the distributed matrix stack.
///
/// The solver layer (GMRES and the smoother-preconditioned
/// momentum path) consumes a distributed operator through this interface
/// only: partition metadata, SpMV / residual, the fused multi-vector
/// variants, and the diagonal. ParCsr (hypre's ParCSR layout) is the
/// first — currently only — implementation; the seam is what future
/// storage backends (BSR for the 3-component momentum block system,
/// SELL-C-sigma for wide-SIMD machines, mixed-precision value arrays)
/// plug into without the Krylov code changing. Format-specific surfaces
/// that do not generalize — diag/offd block access, the comm package,
/// the L/D/U smoother split — stay on the concrete class; relaxation
/// (amg::Smoother) is likewise a per-format kernel set keyed on the
/// concrete type it was built from.
///
/// The fused multi-vector entry points (`matvec_multi`,
/// `residual_multi`) are the interface half of the paper-adjacent
/// "repeated block structure" optimization: the u/v/w momentum systems
/// share one sparsity pattern, so one fused pass reads the index
/// structure (row_ptr/cols) once per `ncomp` value lanes, tripling the
/// arithmetic intensity per index byte. Implementations charge the
/// split through perf::Tracer::kernel_split so the saved index traffic
/// is auditable (bench_momentum_fused hard-fails without it).

#include "common/types.hpp"
#include "par/partition.hpp"
#include "par/runtime.hpp"

namespace exw::linalg {

class ParVector;
class ParMultiVector;

class ParMatrix {
 public:
  virtual ~ParMatrix() = default;

  /// Short storage-format tag ("csr", later "bsr", ...): diagnostics and
  /// format-dispatch assertions in tests.
  virtual const char* format_name() const = 0;

  virtual par::Runtime& runtime() const = 0;
  virtual const par::RowPartition& rows() const = 0;
  virtual const par::RowPartition& cols() const = 0;
  virtual int nranks() const = 0;
  virtual GlobalIndex global_rows() const = 0;
  virtual GlobalIndex global_cols() const = 0;
  virtual GlobalIndex global_nnz() const = 0;

  /// y = alpha * A * x + beta * y (x over cols(), y over rows()).
  virtual void matvec(const ParVector& x, ParVector& y, Real alpha = 1.0,
                      Real beta = 0.0) const = 0;

  /// r = b - A * x.
  virtual void residual(const ParVector& b, const ParVector& x,
                        ParVector& r) const = 0;

  /// Fused multi-vector SpMV: lane c of y gets alpha * A * (lane c of x)
  /// + beta * (lane c of y), bitwise-identical per lane to `matvec` on
  /// that lane alone; the index structure is read once for all lanes.
  virtual void matvec_multi(const ParMultiVector& x, ParMultiVector& y,
                            Real alpha = 1.0, Real beta = 0.0) const = 0;

  /// Fused multi-vector residual: lane c of r = lane c of b - A x_c.
  virtual void residual_multi(const ParMultiVector& b,
                              const ParMultiVector& x,
                              ParMultiVector& r) const = 0;

  /// Per-rank diagonal of the locally-owned block.
  virtual std::vector<RealVector> diagonals() const = 0;

 protected:
  ParMatrix() = default;
  ParMatrix(const ParMatrix&) = default;
  ParMatrix(ParMatrix&&) = default;
  ParMatrix& operator=(const ParMatrix&) = default;
  ParMatrix& operator=(ParMatrix&&) = default;
};

}  // namespace exw::linalg
