#include "linalg/parvector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "perf/purity.hpp"
#include "sparse/prim.hpp"

namespace exw::linalg {

namespace {
// Bytes moved per element for streaming BLAS-1 kernels.
constexpr double kRead = sizeof(Real);

std::size_t active_lanes(std::size_t ncomp,
                         std::span<const std::uint8_t> mask) {
  if (mask.empty()) {
    return ncomp;
  }
  std::size_t n = 0;
  for (std::uint8_t m : mask) {
    if (m != 0) ++n;
  }
  return n;
}
}  // namespace

ParVector::ParVector(par::Runtime& rt, par::RowPartition rows,
                     std::size_t ncomp)
    : rt_(&rt), rows_(std::move(rows)), ncomp_(ncomp) {
  EXW_REQUIRE(ncomp >= 1, "vector needs at least one lane");
  EXW_REQUIRE(rows_.nranks() == rt.nranks(),
              "vector partition does not match runtime rank count");
  own_.resize(static_cast<std::size_t>(rows_.nranks()));
  for (RankId r{0}; r.value() < rows_.nranks(); ++r) {
    own_[static_cast<std::size_t>(r)].assign(ncomp_ * local_n(r), 0.0);
  }
  data_ = own_.data();
}

ParVector::ParVector(const ParVector& other)
    : rt_(other.rt_), rows_(other.rows_), ncomp_(other.ncomp_),
      prec_(other.prec_) {
  if (other.data_ == nullptr) {
    return;
  }
  own_.resize(static_cast<std::size_t>(rows_.nranks()));
  for (RankId r{0}; r.value() < rows_.nranks(); ++r) {
    const auto src = other.block(r);
    own_[static_cast<std::size_t>(r)].assign(src.begin(), src.end());
  }
  data_ = own_.data();
}

ParVector& ParVector::operator=(const ParVector& other) {
  if (this != &other) {
    *this = ParVector(other);
  }
  return *this;
}

ParVector ParVector::lanes(std::size_t first, std::size_t count) {
  EXW_REQUIRE(count >= 1 && first + count <= ncomp_,
              "vector lane window out of range");
  ParVector view;
  view.rt_ = rt_;
  view.rows_ = rows_;
  view.ncomp_ = count;
  view.first_ = first_ + first;
  view.data_ = data_;
  view.prec_ = prec_;
  return view;
}

const ParVector ParVector::lanes(std::size_t first, std::size_t count) const {
  return const_cast<ParVector*>(this)->lanes(first, count);
}

std::size_t ParVector::lane_offset(RankId r, std::size_t lane) const {
  EXW_REQUIRE(lane < ncomp_, "vector lane out of range");
  return lane * local_n(r);
}

void ParVector::set_value_precision(Precision p) {
  EXW_REQUIRE(data_ == own_.data(), "precision is tagged on the owner");
  if (p == prec_) {
    return;
  }
  prec_ = p;
  if (p == Precision::kF32) {
    // Establish the storage invariant on whatever is already held.
    // Cold (re)tagging, not a modeled kernel: no charge.
    rt_->parallel_for_ranks([&](RankId r) {
      for (Real& v : local(r)) {
        v = demote_value(v);
      }
    });
  }
}

Real& ParVector::at(GlobalIndex g, std::size_t lane) {
  const RankId r = rows_.rank_of(g);
  return block(r)[lane_offset(r, lane) +
                  static_cast<std::size_t>(rows_.to_local(r, g))];
}

Real ParVector::at(GlobalIndex g, std::size_t lane) const {
  const RankId r = rows_.rank_of(g);
  return block(r)[lane_offset(r, lane) +
                  static_cast<std::size_t>(rows_.to_local(r, g))];
}

EXW_WARM_FN
void ParVector::set_values_from_plan(RankId r, std::span<const Real> owned,
                                     const VectorFillPlan& plan,
                                     std::span<const Real> recv) {
  EXW_PURITY_REGION("parvector-value-fill");
  EXW_CONTRACT_CHECK_WRITE(r, "ParVector::set_values_from_plan(r)");
  EXW_REQUIRE(ncomp_ == 1, "value-fill plans refill 1-lane vectors");
  EXW_REQUIRE(prec_ == Precision::kF64,
              "value-fill plans refill fp64 vectors (assembly plane)");
  const auto x = block(r);
  EXW_REQUIRE(owned.size() == x.size(),
              "owned RHS must be dense over local rows");
  EXW_REQUIRE(plan.seg_ptr.size() == plan.dest.size() + 1 &&
                  (plan.perm.empty() || plan.seg_ptr.back() == plan.perm.size()),
              "RHS-fill plan shape mismatch");
  EXW_REQUIRE(recv.size() == plan.perm.size(),
              "received value stream does not match plan");
  std::copy(owned.begin(), owned.end(), x.begin());
  sparse::prim::segmented_reduce<Real>(
      recv, plan.perm, plan.seg_ptr, [&](std::size_t u, Real acc) {
        x[static_cast<std::size_t>(plan.dest[u])] += acc;
      });
  const auto n = static_cast<double>(x.size());
  const auto nr = static_cast<double>(recv.size());
  rt_->tracer().kernel(r, nr, 2.0 * kRead * n +
                                  nr * (kRead + sizeof(std::size_t)));
}

void ParVector::fill(Real value) {
  const Real sv = store_value(value, prec_);
  rt_->parallel_for_ranks([&](RankId r) {
    const auto x = local(r);
    std::fill(x.begin(), x.end(), sv);
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, bytes_of(prec_) * static_cast<double>(x.size()),
                      f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

void ParVector::copy_from(const ParVector& other) {
  EXW_REQUIRE(other.ncomp_ == ncomp_, "vector lane count mismatch");
  EXW_REQUIRE(other.global_size() == global_size(), "vector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    const auto y = local(r);
    const auto xs = other.local(r);
    if (prec_ == Precision::kF32 && other.prec_ == Precision::kF64) {
      for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = demote_value(xs[i]);
      }
    } else {
      // Same precision, or f64 <- f32: source values already
      // representable in the destination storage.
      std::copy(xs.begin(), xs.end(), y.begin());
    }
    const auto n = static_cast<double>(y.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(other.prec_, bytes_of(other.prec_) * n, f64, f32);
    split_value_bytes(prec_, bytes_of(prec_) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

EXW_WARM_FN
void ParVector::scale_lanes(std::span<const Real> alpha,
                            std::span<const std::uint8_t> mask) {
  EXW_PURITY_REGION("vector-scale-lanes");
  EXW_REQUIRE(alpha.size() == ncomp_, "one scale factor per lane required");
  EXW_REQUIRE(mask.empty() || mask.size() == ncomp_,
              "lane mask size mismatch");
  const auto na = static_cast<double>(active_lanes(ncomp_, mask));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    const auto x = local(r);
    for (std::size_t c = 0; c < ncomp_; ++c) {
      if (!mask.empty() && mask[c] == 0) continue;
      const Real a = alpha[c];
      for (std::size_t i = 0; i < n; ++i) {
        x[c * n + i] = store_value(x[c * n + i] * a, prec_);
      }
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, 2.0 * bytes_of(prec_) * na * static_cast<double>(n),
                      f64, f32);
    rt_->tracer().kernel_split_prec(r, na * static_cast<double>(n), f64, f32,
                                    0.0);
  });
}

EXW_WARM_FN
void ParVector::axpy_lanes(std::span<const Real> alpha, const ParVector& x,
                           std::span<const std::uint8_t> mask) {
  EXW_PURITY_REGION("vector-axpy-lanes");
  EXW_REQUIRE(alpha.size() == ncomp_, "one axpy factor per lane required");
  EXW_REQUIRE(mask.empty() || mask.size() == ncomp_,
              "lane mask size mismatch");
  EXW_REQUIRE(x.ncomp_ == ncomp_, "vector lane count mismatch");
  EXW_REQUIRE(x.global_size() == global_size(), "vector size mismatch");
  const auto na = static_cast<double>(active_lanes(ncomp_, mask));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    const auto y = local(r);
    const auto xs = x.local(r);
    for (std::size_t c = 0; c < ncomp_; ++c) {
      if (!mask.empty() && mask[c] == 0) continue;
      const Real a = alpha[c];
      for (std::size_t i = 0; i < n; ++i) {
        y[c * n + i] = store_value(y[c * n + i] + a * xs[c * n + i], prec_);
      }
    }
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, 2.0 * bytes_of(prec_) * na * static_cast<double>(n),
                      f64, f32);
    split_value_bytes(x.prec_, bytes_of(x.prec_) * na * static_cast<double>(n),
                      f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * na * static_cast<double>(n), f64,
                                    f32, 0.0);
  });
}

void ParVector::aypx(Real alpha, const ParVector& x) {
  EXW_REQUIRE(ncomp_ == 1 && x.ncomp_ == 1, "aypx runs on 1-lane vectors");
  EXW_REQUIRE(x.global_size() == global_size(), "vector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    const auto y = local(r);
    const auto xs = x.local(r);
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = store_value(alpha * y[i] + xs[i], prec_);
    }
    const auto n = static_cast<double>(y.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, 2.0 * bytes_of(prec_) * n, f64, f32);
    split_value_bytes(x.prec_, bytes_of(x.prec_) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * n, f64, f32, 0.0);
  });
}

EXW_WARM_FN
std::vector<double> ParVector::dots(const ParVector& other) const {
  EXW_PURITY_REGION("vector-dots");
  EXW_REQUIRE(other.ncomp_ == ncomp_, "vector lane count mismatch");
  EXW_REQUIRE(other.global_size() == global_size(), "vector size mismatch");
  // Per-rank partial sums and the reduced result are the collective's
  // payload — MPI library buffers in a real run, not warm-path state.
  EXW_PURITY_ALLOW("collective payload staging");
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(nranks()), std::vector<double>(ncomp_, 0.0));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    const auto x = local(r);
    const auto y = other.local(r);
    auto& p = partial[static_cast<std::size_t>(r)];
    for (std::size_t c = 0; c < ncomp_; ++c) {
      double s = 0;
      for (std::size_t i = 0; i < n; ++i) {
        s += x[c * n + i] * y[c * n + i];
      }
      p[c] = s;
    }
    const double nc = static_cast<double>(ncomp_) * static_cast<double>(n);
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, bytes_of(prec_) * nc, f64, f32);
    split_value_bytes(other.prec_, bytes_of(other.prec_) * nc, f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * nc, f64, f32, 0.0);
  });
  return rt_->allreduce_sum_vec(partial);
}

std::vector<double> ParVector::norms() const {
  auto out = dots(*this);
  for (double& v : out) {
    v = std::sqrt(v);
  }
  return out;
}

double ParVector::dot(const ParVector& other) const {
  EXW_REQUIRE(ncomp_ == 1, "dot runs on 1-lane vectors");
  return dots(other)[0];
}

double ParVector::norm2() const {
  EXW_REQUIRE(ncomp_ == 1, "norm2 runs on 1-lane vectors");
  return norms()[0];
}

RealVector ParVector::gather() const {
  EXW_REQUIRE(ncomp_ == 1, "gather reads 1-lane vectors");
  RealVector out(static_cast<std::size_t>(global_size()));
  // Ranks write disjoint [first_row, end_row) slices.
  rt_->parallel_for_ranks([&](RankId r) {
    const auto x = local(r);
    std::copy(x.begin(), x.end(),
              out.begin() + static_cast<std::ptrdiff_t>(rows_.first_row(r).value()));
  });
  return out;
}

void ParVector::scatter(const RealVector& global) {
  EXW_REQUIRE(ncomp_ == 1, "scatter writes 1-lane vectors");
  EXW_REQUIRE(global.size() == static_cast<std::size_t>(global_size()),
              "vector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    const auto x = local(r);
    std::copy(global.begin() +
                  static_cast<std::ptrdiff_t>(rows_.first_row(r).value()),
              global.begin() + static_cast<std::ptrdiff_t>(rows_.end_row(r).value()),
              x.begin());
    if (prec_ == Precision::kF32) {
      for (Real& v : x) v = demote_value(v);
    }
  });
}

}  // namespace exw::linalg
