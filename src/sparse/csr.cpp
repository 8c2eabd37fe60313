#include "sparse/csr.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "sparse/prim.hpp"

namespace exw::sparse {

Csr Csr::from_triples(LocalIndex nrows, LocalIndex ncols,
                      std::vector<LocalIndex> rows,
                      std::vector<LocalIndex> cols,
                      std::vector<Real> vals) {
  EXW_REQUIRE(rows.size() == cols.size() && rows.size() == vals.size(),
              "triple array length mismatch");
  prim::stable_sort_by_key(rows, cols, vals);
  prim::reduce_by_key(rows, cols, vals);

  Csr out(nrows, ncols);
  out.cols_ = std::move(cols);
  out.vals_ = std::move(vals);
  for (LocalIndex r : rows) {
    EXW_ASSERT(r >= LocalIndex{0} && r < nrows);
    out.row_ptr_[static_cast<std::size_t>(r) + 1] += 1;
  }
  for (std::size_t i = 1; i < out.row_ptr_.size(); ++i) {
    out.row_ptr_[i] += out.row_ptr_[i - 1];
  }
  return out;
}

Csr Csr::identity(LocalIndex n) {
  Csr out(n, n);
  out.cols_.resize(static_cast<std::size_t>(n));
  out.vals_.assign(static_cast<std::size_t>(n), 1.0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    out.cols_[i] = LocalIndex{i};
    out.row_ptr_[i + 1] = EntryOffset{i + 1};
  }
  return out;
}

namespace {

/// The SpMV body for L lanes. Every operand is passed by value, so the
/// compiler keeps alpha, beta and the array bases in registers across
/// the stores into y; with L = 1 this is the plain scalar row loop.
template <std::size_t L>
void spmv_rows(std::int64_t nrows, const EntryOffset* row_ptr,
               const LocalIndex* cols, const Real* vals, const Real* x,
               std::size_t xs, Real* y, std::size_t ys, Real alpha,
               Real beta) {
  // Raw 64-bit loop variable: OpenMP requires an integral canonical form.
#ifdef EXW_HAVE_OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t i = 0; i < nrows; ++i) {
    std::array<Real, L> acc{};
    // One pass over the row's index structure feeds every lane.
    const auto end = static_cast<std::size_t>(row_ptr[i + 1]);
    for (auto k = static_cast<std::size_t>(row_ptr[i]); k < end; ++k) {
      const Real a = vals[k];
      const auto c = static_cast<std::size_t>(cols[k]);
      for (std::size_t l = 0; l < L; ++l) {
        acc[l] += a * x[l * xs + c];
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      Real& yi = y[l * ys + static_cast<std::size_t>(i)];
      yi = beta == 0.0 ? alpha * acc[l] : beta * yi + alpha * acc[l];
    }
  }
}

}  // namespace

void Csr::spmv(std::span<const Real> x, std::span<Real> y, Real alpha,
               Real beta, std::size_t lanes) const {
  EXW_ASSERT(lanes >= 1 && x.size() % lanes == 0 && y.size() % lanes == 0);
  const std::size_t xs = x.size() / lanes;
  const std::size_t ys = y.size() / lanes;
  EXW_ASSERT(xs >= static_cast<std::size_t>(ncols_));
  EXW_ASSERT(ys >= static_cast<std::size_t>(nrows_));
  with_lane_count(lanes, [&]<std::size_t L>() {
    spmv_rows<L>(nrows_.value(), row_ptr_.data(), cols_.data(), vals_.data(),
                 x.data(), xs, y.data(), ys, alpha, beta);
  });
}

void Csr::spmv_transpose(std::span<const Real> x, std::span<Real> y,
                         Real alpha, Real beta) const {
  EXW_ASSERT(x.size() >= static_cast<std::size_t>(nrows_));
  EXW_ASSERT(y.size() >= static_cast<std::size_t>(ncols_));
  if (beta == 0.0) {
    std::fill(y.begin(), y.begin() + ncols_.value(), 0.0);
  } else if (beta != 1.0) {
    for (LocalIndex j{0}; j < ncols_; ++j) {
      y[static_cast<std::size_t>(j)] *= beta;
    }
  }
  for (LocalIndex i{0}; i < nrows_; ++i) {
    const Real xi = alpha * x[static_cast<std::size_t>(i)];
    if (xi == 0.0) continue;
    for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
      y[static_cast<std::size_t>(cols_[static_cast<std::size_t>(k)])] +=
          vals_[static_cast<std::size_t>(k)] * xi;
    }
  }
}

std::vector<Real> Csr::diagonal() const {
  std::vector<Real> d(static_cast<std::size_t>(nrows_), 0.0);
  const LocalIndex bound{std::min(nrows_.value(), ncols_.value())};
  for (LocalIndex i{0}; i < bound; ++i) {
    for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
      if (cols_[static_cast<std::size_t>(k)].value() == i.value()) {
        d[static_cast<std::size_t>(i)] = vals_[static_cast<std::size_t>(k)];
        break;
      }
    }
  }
  return d;
}

Csr Csr::transpose() const {
  Csr out(ncols_, nrows_);
  out.cols_.resize(nnz());
  out.vals_.resize(nnz());
  // Counting sort by column.
  std::vector<EntryOffset> count(static_cast<std::size_t>(ncols_) + 1,
                                 EntryOffset{0});
  for (LocalIndex c : cols_) {
    count[static_cast<std::size_t>(c) + 1] += 1;
  }
  for (std::size_t i = 1; i < count.size(); ++i) {
    count[i] += count[i - 1];
  }
  out.row_ptr_ = count;
  std::vector<EntryOffset> cursor(count.begin(), count.end() - 1);
  for (LocalIndex i{0}; i < nrows_; ++i) {
    for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
      const LocalIndex c = cols_[static_cast<std::size_t>(k)];
      const EntryOffset slot = cursor[static_cast<std::size_t>(c)]++;
      out.cols_[static_cast<std::size_t>(slot)] = i;
      out.vals_[static_cast<std::size_t>(slot)] =
          vals_[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

void Csr::sort_rows() {
  std::vector<std::pair<LocalIndex, Real>> tmp;
  for (LocalIndex i{0}; i < nrows_; ++i) {
    const auto b = static_cast<std::size_t>(row_begin(i));
    const auto e = static_cast<std::size_t>(row_end(i));
    tmp.clear();
    for (std::size_t k = b; k < e; ++k) {
      tmp.emplace_back(cols_[k], vals_[k]);
    }
    std::sort(tmp.begin(), tmp.end(),
              [](const auto& a, const auto& c) { return a.first < c.first; });
    for (std::size_t k = b; k < e; ++k) {
      cols_[k] = tmp[k - b].first;
      vals_[k] = tmp[k - b].second;
    }
  }
}

void Csr::scale_rows(std::span<const Real> s) {
  EXW_ASSERT(s.size() >= static_cast<std::size_t>(nrows_));
  for (LocalIndex i{0}; i < nrows_; ++i) {
    for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
      vals_[static_cast<std::size_t>(k)] *= s[static_cast<std::size_t>(i)];
    }
  }
}

Real Csr::at(LocalIndex i, LocalIndex j) const {
  for (EntryOffset k = row_begin(i); k < row_end(i); ++k) {
    if (cols_[static_cast<std::size_t>(k)] == j) {
      return vals_[static_cast<std::size_t>(k)];
    }
  }
  return 0.0;
}

Real Csr::max_abs() const {
  Real m = 0.0;
  for (Real v : vals_) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

Csr add(const Csr& a, const Csr& b) {
  EXW_REQUIRE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
              "matrix add shape mismatch");
  Csr out(a.nrows(), a.ncols());
  auto& rp = out.row_ptr_mut();
  auto& cols = out.cols_vec();
  auto& vals = out.vals_vec();
  std::vector<Real> accum(static_cast<std::size_t>(a.ncols()), 0.0);
  std::vector<LocalIndex> marker(static_cast<std::size_t>(a.ncols()),
                                 kInvalidLocal);
  std::vector<LocalIndex> live;
  for (LocalIndex i{0}; i < a.nrows(); ++i) {
    live.clear();
    auto absorb = [&](const Csr& m) {
      for (EntryOffset k = m.row_begin(i); k < m.row_end(i); ++k) {
        const LocalIndex c = m.cols()[k];
        if (marker[static_cast<std::size_t>(c)] != i) {
          marker[static_cast<std::size_t>(c)] = i;
          accum[static_cast<std::size_t>(c)] = 0.0;
          live.push_back(c);
        }
        accum[static_cast<std::size_t>(c)] += m.vals()[k];
      }
    };
    absorb(a);
    absorb(b);
    std::sort(live.begin(), live.end());
    for (LocalIndex c : live) {
      cols.push_back(c);
      vals.push_back(accum[static_cast<std::size_t>(c)]);
    }
    rp[static_cast<std::size_t>(i) + 1] = EntryOffset{cols.size()};
  }
  return out;
}

Csr extract(const Csr& a, std::span<const LocalIndex> rows,
            std::span<const LocalIndex> col_map, LocalIndex ncols_out) {
  Csr out(checked_narrow<LocalIndex>(rows.size()), ncols_out);
  auto& rp = out.row_ptr_mut();
  auto& cols = out.cols_vec();
  auto& vals = out.vals_vec();
  for (std::size_t oi = 0; oi < rows.size(); ++oi) {
    const LocalIndex i = rows[oi];
    for (EntryOffset k = a.row_begin(i); k < a.row_end(i); ++k) {
      const LocalIndex c = a.cols()[k];
      const LocalIndex nc = col_map[static_cast<std::size_t>(c)];
      if (nc != kInvalidLocal) {
        cols.push_back(nc);
        vals.push_back(a.vals()[k]);
      }
    }
    rp[oi + 1] = EntryOffset{cols.size()};
  }
  return out;
}

Real residual_inf_norm(const Csr& a, std::span<const Real> x,
                       std::span<const Real> b) {
  std::vector<Real> y(static_cast<std::size_t>(a.nrows()), 0.0);
  a.spmv(x, y);
  Real m = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    m = std::max(m, std::abs(y[i] - b[i]));
  }
  return m;
}

}  // namespace exw::sparse
