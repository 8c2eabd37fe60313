#include "linalg/multivector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/precision.hpp"
#include "linalg/parvector.hpp"
#include "perf/purity.hpp"

namespace exw::linalg {

namespace {
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

ParMultiVector::ParMultiVector(par::Runtime& rt, par::RowPartition rows,
                               std::size_t ncomp)
    : rt_(&rt), rows_(std::move(rows)), ncomp_(ncomp) {
  EXW_REQUIRE(ncomp >= 1, "multivector needs at least one lane");
  EXW_REQUIRE(rows_.nranks() == rt.nranks(),
              "multivector partition does not match runtime rank count");
  local_.resize(static_cast<std::size_t>(rows_.nranks()));
  for (RankId r{0}; r.value() < rows_.nranks(); ++r) {
    local_[static_cast<std::size_t>(r)].assign(ncomp_ * local_n(r), 0.0);
  }
}

void ParMultiVector::set_value_precision(Precision p) {
  if (p == prec_) {
    return;
  }
  prec_ = p;
  if (p == Precision::kF32) {
    // Cold (re)tagging: establish the storage invariant, no charge.
    rt_->parallel_for_ranks([&](RankId r) {
      for (Real& v : local_[static_cast<std::size_t>(r)]) {
        v = demote_value(v);
      }
    });
  }
}

std::span<Real> ParMultiVector::lane_span(RankId r, std::size_t lane) {
  EXW_CONTRACT_CHECK_WRITE(r, "ParMultiVector::lane_span(r)");
  EXW_REQUIRE(lane < ncomp_, "multivector lane out of range");
  const std::size_t n = local_n(r);
  return std::span<Real>(local_[static_cast<std::size_t>(r)])
      .subspan(lane * n, n);
}

std::span<const Real> ParMultiVector::lane_span(RankId r,
                                                std::size_t lane) const {
  EXW_REQUIRE(lane < ncomp_, "multivector lane out of range");
  const std::size_t n = local_n(r);
  return std::span<const Real>(local_[static_cast<std::size_t>(r)])
      .subspan(lane * n, n);
}

Real& ParMultiVector::at(std::size_t lane, GlobalIndex g) {
  EXW_REQUIRE(lane < ncomp_, "multivector lane out of range");
  const RankId r = rows_.rank_of(g);
  return local_[static_cast<std::size_t>(r)]
               [lane * local_n(r) +
                static_cast<std::size_t>(rows_.to_local(r, g))];
}

Real ParMultiVector::at(std::size_t lane, GlobalIndex g) const {
  EXW_REQUIRE(lane < ncomp_, "multivector lane out of range");
  const RankId r = rows_.rank_of(g);
  return local_[static_cast<std::size_t>(r)]
               [lane * local_n(r) +
                static_cast<std::size_t>(rows_.to_local(r, g))];
}

void ParMultiVector::fill(Real value) {
  const Real sv = store_value(value, prec_);
  rt_->parallel_for_ranks([&](RankId r) {
    auto& x = local_[static_cast<std::size_t>(r)];
    std::fill(x.begin(), x.end(), sv);
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, bytes_of(prec_) * static_cast<double>(x.size()),
                      f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

void ParMultiVector::copy_from(const ParMultiVector& other) {
  EXW_REQUIRE(other.ncomp_ == ncomp_, "multivector lane count mismatch");
  EXW_REQUIRE(other.global_size() == global_size(),
              "multivector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    auto& y = local_[static_cast<std::size_t>(r)];
    const auto& xs = other.local_[static_cast<std::size_t>(r)];
    if (prec_ == Precision::kF32 && other.prec_ == Precision::kF64) {
      for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = demote_value(xs[i]);
      }
    } else {
      y = xs;
    }
    const auto n = static_cast<double>(y.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(other.prec_, bytes_of(other.prec_) * n, f64, f32);
    split_value_bytes(prec_, bytes_of(prec_) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

EXW_WARM_FN
void ParMultiVector::scale_lanes(std::span<const Real> alpha,
                                 std::span<const std::uint8_t> mask) {
  EXW_PURITY_REGION("multivector-scale-lanes");
  EXW_REQUIRE(alpha.size() == ncomp_, "one scale factor per lane required");
  EXW_REQUIRE(mask.empty() || mask.size() == ncomp_,
              "lane mask size mismatch");
  const auto na = static_cast<double>(active_lanes(ncomp_, mask));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    auto& x = local_[static_cast<std::size_t>(r)];
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
void ParMultiVector::axpy_lanes(std::span<const Real> alpha,
                                const ParMultiVector& x,
                                std::span<const std::uint8_t> mask) {
  EXW_PURITY_REGION("multivector-axpy-lanes");
  EXW_REQUIRE(alpha.size() == ncomp_, "one axpy factor per lane required");
  EXW_REQUIRE(mask.empty() || mask.size() == ncomp_,
              "lane mask size mismatch");
  EXW_REQUIRE(x.ncomp_ == ncomp_, "multivector lane count mismatch");
  EXW_REQUIRE(x.global_size() == global_size(), "multivector size mismatch");
  const auto na = static_cast<double>(active_lanes(ncomp_, mask));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    auto& y = local_[static_cast<std::size_t>(r)];
    const auto& xs = x.local_[static_cast<std::size_t>(r)];
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

EXW_WARM_FN
std::vector<double> ParMultiVector::dots(const ParMultiVector& other) const {
  EXW_PURITY_REGION("multivector-dots");
  EXW_REQUIRE(other.ncomp_ == ncomp_, "multivector lane count mismatch");
  EXW_REQUIRE(other.global_size() == global_size(),
              "multivector size mismatch");
  // Per-rank partial sums and the reduced result are the collective's
  // payload — MPI library buffers in a real run, not warm-path state.
  EXW_PURITY_ALLOW("collective payload staging");
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(nranks()), std::vector<double>(ncomp_, 0.0));
  rt_->parallel_for_ranks([&](RankId r) {
    const std::size_t n = local_n(r);
    const auto& x = local_[static_cast<std::size_t>(r)];
    const auto& y = other.local_[static_cast<std::size_t>(r)];
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

std::vector<double> ParMultiVector::norms() const {
  auto out = dots(*this);
  for (double& v : out) {
    v = std::sqrt(v);
  }
  return out;
}

void ParMultiVector::lane_fill(std::size_t lane, Real value) {
  EXW_REQUIRE(lane < ncomp_, "multivector lane out of range");
  const Real sv = store_value(value, prec_);
  rt_->parallel_for_ranks([&](RankId r) {
    auto s = lane_span(r, lane);
    std::fill(s.begin(), s.end(), sv);
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, bytes_of(prec_) * static_cast<double>(s.size()),
                      f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

void ParMultiVector::lane_axpy(std::size_t lane, Real alpha,
                               const ParMultiVector& x) {
  EXW_REQUIRE(lane < ncomp_ && lane < x.ncomp_,
              "multivector lane out of range");
  EXW_REQUIRE(x.global_size() == global_size(), "multivector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    auto y = lane_span(r, lane);
    const auto xs = x.lane_span(r, lane);
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = store_value(y[i] + alpha * xs[i], prec_);
    }
    const auto n = static_cast<double>(y.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, 2.0 * bytes_of(prec_) * n, f64, f32);
    split_value_bytes(x.prec_, bytes_of(x.prec_) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * n, f64, f32, 0.0);
  });
}

double ParMultiVector::lane_norm2(std::size_t lane) const {
  EXW_REQUIRE(lane < ncomp_, "multivector lane out of range");
  std::vector<double> partial(static_cast<std::size_t>(nranks()), 0.0);
  rt_->parallel_for_ranks([&](RankId r) {
    const auto x = lane_span(r, lane);
    double s = 0;
    for (double v : x) {
      s += v * v;
    }
    partial[static_cast<std::size_t>(r)] = s;
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_,
                      2.0 * bytes_of(prec_) * static_cast<double>(x.size()),
                      f64, f32);
    rt_->tracer().kernel_split_prec(r, 2.0 * static_cast<double>(x.size()),
                                    f64, f32, 0.0);
  });
  return std::sqrt(rt_->allreduce_sum(partial));
}

void ParMultiVector::set_lane(std::size_t lane, const ParVector& src) {
  EXW_REQUIRE(lane < ncomp_, "multivector lane out of range");
  EXW_REQUIRE(src.global_size() == global_size(),
              "multivector/vector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    auto dst = lane_span(r, lane);
    const auto& s = src.local(r);
    if (prec_ == Precision::kF32 &&
        src.value_precision() == Precision::kF64) {
      for (std::size_t i = 0; i < dst.size(); ++i) {
        dst[i] = demote_value(s[i]);
      }
    } else {
      std::copy(s.begin(), s.end(), dst.begin());
    }
    const auto n = static_cast<double>(s.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(src.value_precision(),
                      bytes_of(src.value_precision()) * n, f64, f32);
    split_value_bytes(prec_, bytes_of(prec_) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

void ParMultiVector::extract_lane(std::size_t lane, ParVector& dst) const {
  EXW_REQUIRE(lane < ncomp_, "multivector lane out of range");
  EXW_REQUIRE(dst.global_size() == global_size(),
              "multivector/vector size mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    const auto s = lane_span(r, lane);
    auto& d = dst.local(r);
    if (dst.value_precision() == Precision::kF32 &&
        prec_ == Precision::kF64) {
      for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = demote_value(s[i]);
      }
    } else {
      std::copy(s.begin(), s.end(), d.begin());
    }
    const auto n = static_cast<double>(s.size());
    double f64 = 0, f32 = 0;
    split_value_bytes(prec_, bytes_of(prec_) * n, f64, f32);
    split_value_bytes(dst.value_precision(),
                      bytes_of(dst.value_precision()) * n, f64, f32);
    rt_->tracer().kernel_split_prec(r, 0.0, f64, f32, 0.0);
  });
}

}  // namespace exw::linalg
