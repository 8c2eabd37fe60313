#include "assembly/global.hpp"

#include <algorithm>
#include <cmath>

#include "assembly/charges.hpp"
#include "common/error.hpp"
#include "par/tags.hpp"
#include "sparse/prim.hpp"

namespace exw::assembly {

// Channel tags come from the central registry (par/tags.hpp); the
// former file-local 201-205 constants live there now, uniqueness
// compile-checked against every other subsystem.
namespace tags = par::tags;

namespace {

using detail::charge_sort;
using detail::charge_stream;
using detail::kPairBytes;
using detail::kTripleBytes;

}  // namespace

linalg::RankBlock split_diag_offd(const sparse::Coo& coo,
                                  const par::RowPartition& rows,
                                  const par::RowPartition& cols, RankId r) {
  linalg::RankBlock block;
  const GlobalIndex row0 = rows.first_row(r);
  const GlobalIndex col0 = cols.first_row(r);
  const GlobalIndex col1 = cols.end_row(r);
  const auto nlocal = rows.local_size(r);

  // Gather distinct off-diagonal columns (ascending). Reserving nnz up
  // front keeps the gather a single allocation even when most entries
  // are off-diagonal (worst case for halo-heavy partitions).
  block.col_map.reserve(coo.nnz());
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    const GlobalIndex c = coo.cols[k];
    if (c < col0 || c >= col1) {
      block.col_map.push_back(c);
    }
  }
  const std::size_t n_offd = block.col_map.size();
  std::sort(block.col_map.begin(), block.col_map.end());
  block.col_map.erase(std::unique(block.col_map.begin(), block.col_map.end()),
                      block.col_map.end());

  block.diag = sparse::Csr(nlocal, checked_narrow<LocalIndex>(col1 - col0));
  block.offd =
      sparse::Csr(nlocal, checked_narrow<LocalIndex>(block.col_map.size()));
  auto& drp = block.diag.row_ptr_mut();
  auto& orp = block.offd.row_ptr_mut();
  // Entry counts are known exactly: n_offd off-diagonal, the rest diag.
  block.diag.cols_vec().reserve(coo.nnz() - n_offd);
  block.diag.vals_vec().reserve(coo.nnz() - n_offd);
  block.offd.cols_vec().reserve(n_offd);
  block.offd.vals_vec().reserve(n_offd);
  std::size_t k = 0;
  for (LocalIndex i{0}; i < nlocal; ++i) {
    const GlobalIndex grow = row0 + i.value();
    while (k < coo.nnz() && coo.rows[k] == grow) {
      const GlobalIndex c = coo.cols[k];
      if (c >= col0 && c < col1) {
        block.diag.cols_vec().push_back(checked_narrow<LocalIndex>(c - col0));
        block.diag.vals_vec().push_back(coo.vals[k]);
      } else {
        const auto it =
            std::lower_bound(block.col_map.begin(), block.col_map.end(), c);
        block.offd.cols_vec().push_back(
            checked_narrow<LocalIndex>(it - block.col_map.begin()));
        block.offd.vals_vec().push_back(coo.vals[k]);
      }
      ++k;
    }
    drp[static_cast<std::size_t>(i) + 1] =
        EntryOffset{block.diag.cols_vec().size()};
    orp[static_cast<std::size_t>(i) + 1] =
        EntryOffset{block.offd.cols_vec().size()};
  }
  EXW_REQUIRE(k == coo.nnz(), "COO rows outside owned range in split");
  return block;
}

linalg::ParCsr assemble_matrix(par::Runtime& rt, const par::RowPartition& rows,
                               const par::RowPartition& cols,
                               std::span<const SystemView> systems,
                               GlobalAssemblyAlgo algo) {
  const int nranks = rt.nranks();
  EXW_REQUIRE(checked_narrow<int>(systems.size()) == nranks,
              "one system view per rank");
  auto& transport = rt.transport();
  auto& tracer = rt.tracer();

  // Pre-compute nnz_recv (paper: "easily computed using MPI_Allreduce API
  // calls after the graph-computation step") so receive buffers can be
  // sized up front.
  std::vector<GlobalIndex> send_counts(static_cast<std::size_t>(nranks),
                                       GlobalIndex{0});
  for (RankId r{0}; r.value() < nranks; ++r) {
    send_counts[static_cast<std::size_t>(r)] =
        GlobalIndex{systems[static_cast<std::size_t>(r)].shared->nnz()};
  }
  (void)rt.allreduce_sum(send_counts);

  // Step 2: route each rank's shared triples to the owning ranks.
  // shared[r] is sorted by row, so owner runs are contiguous.
  rt.parallel_for_ranks([&](RankId r) {
    const auto& sh = *systems[static_cast<std::size_t>(r)].shared;
    std::size_t i = 0;
    while (i < sh.nnz()) {
      const RankId owner = rows.rank_of(sh.rows[i]);
      std::size_t j = i;
      while (j < sh.nnz() && rows.rank_of(sh.rows[j]) == owner) {
        ++j;
      }
      transport.send(r, owner, tags::kCooRows,
                     std::vector<GlobalIndex>(sh.rows.begin() + static_cast<std::ptrdiff_t>(i),
                                              sh.rows.begin() + static_cast<std::ptrdiff_t>(j)));
      transport.send(r, owner, tags::kCooCols,
                     std::vector<GlobalIndex>(sh.cols.begin() + static_cast<std::ptrdiff_t>(i),
                                              sh.cols.begin() + static_cast<std::ptrdiff_t>(j)));
      transport.send(r, owner, tags::kCooVals,
                     std::vector<Real>(sh.vals.begin() + static_cast<std::ptrdiff_t>(i),
                                       sh.vals.begin() + static_cast<std::ptrdiff_t>(j)));
      i = j;
    }
  });

  std::vector<linalg::RankBlock> blocks(static_cast<std::size_t>(nranks));
  rt.parallel_for_ranks([&](RankId r) {
    // Step 3-4: stack owned + all received buffers.
    sparse::Coo recv;
    for (RankId src{0}; src.value() < nranks; ++src) {
      if (!transport.has_message(r, src, tags::kCooRows)) continue;
      auto ri = transport.recv<GlobalIndex>(r, src, tags::kCooRows);
      auto rj = transport.recv<GlobalIndex>(r, src, tags::kCooCols);
      auto rv = transport.recv<Real>(r, src, tags::kCooVals);
      recv.rows.insert(recv.rows.end(), ri.begin(), ri.end());
      recv.cols.insert(recv.cols.end(), rj.begin(), rj.end());
      recv.vals.insert(recv.vals.end(), rv.begin(), rv.end());
    }

    const auto& own = *systems[static_cast<std::size_t>(r)].owned;
    sparse::Coo all;
    if (algo == GlobalAssemblyAlgo::kSortReduce ||
        algo == GlobalAssemblyAlgo::kGeneral) {
      // Algorithm 1 lines 4-6: stack, stable_sort_by_key, reduce_by_key.
      all = own;
      all.append(recv);
      charge_sort(tracer, r, all.nnz(), kTripleBytes);
      all.normalize();
      charge_stream(tracer, r, all.nnz(), kTripleBytes);
      if (algo == GlobalAssemblyAlgo::kGeneral) {
        // The general path cannot assume stacked pre-sized buffers or
        // pre-computed nnz_recv: it re-allocates and re-stages the data
        // several times mid-algorithm (paper §5.1: "more device memory,
        // more data motion, and more complex algorithms"). Charge a
        // second full sort pass plus the staging traffic.
        charge_sort(tracer, r, all.nnz(), 2.0 * kTripleBytes);
        for (std::size_t stage = 0; stage < 6; ++stage) {
          charge_stream(tracer, r, all.nnz(), kTripleBytes);
        }
      }
    } else {
      // Sparse-add variant: normalize only the received set, then one
      // merge pass against the (already normalized) owned set.
      charge_sort(tracer, r, recv.nnz(), kTripleBytes);
      recv.normalize();
      all.reserve(own.nnz() + recv.nnz());
      std::size_t a = 0, b = 0;
      while (a < own.nnz() || b < recv.nnz()) {
        const bool take_a =
            b >= recv.nnz() ||
            (a < own.nnz() &&
             (own.rows[a] < recv.rows[b] ||
              (own.rows[a] == recv.rows[b] && own.cols[a] <= recv.cols[b])));
        if (take_a) {
          if (b < recv.nnz() && own.rows[a] == recv.rows[b] &&
              own.cols[a] == recv.cols[b]) {
            all.push(own.rows[a], own.cols[a], own.vals[a] + recv.vals[b]);
            ++a;
            ++b;
          } else {
            all.push(own.rows[a], own.cols[a], own.vals[a]);
            ++a;
          }
        } else {
          all.push(recv.rows[b], recv.cols[b], recv.vals[b]);
          ++b;
        }
      }
      charge_stream(tracer, r, own.nnz() + recv.nnz(), kTripleBytes);
    }

    // Step 7: split into diag/offd.
    blocks[static_cast<std::size_t>(r)] = split_diag_offd(all, rows, cols, r);
    charge_stream(tracer, r, all.nnz(), kTripleBytes);
  });
  return linalg::ParCsr(rt, rows, cols, std::move(blocks));
}

linalg::ParVector assemble_vector(par::Runtime& rt,
                                  const par::RowPartition& rows,
                                  std::span<const SystemView> systems,
                                  GlobalAssemblyAlgo algo) {
  const int nranks = rt.nranks();
  EXW_REQUIRE(checked_narrow<int>(systems.size()) == nranks,
              "one system view per rank");
  auto& transport = rt.transport();
  auto& tracer = rt.tracer();

  std::vector<GlobalIndex> send_counts(static_cast<std::size_t>(nranks),
                                       GlobalIndex{0});
  for (RankId r{0}; r.value() < nranks; ++r) {
    send_counts[static_cast<std::size_t>(r)] =
        GlobalIndex{systems[static_cast<std::size_t>(r)].rhs_shared->size()};
  }
  (void)rt.allreduce_sum(send_counts);

  rt.parallel_for_ranks([&](RankId r) {
    const auto& sh = *systems[static_cast<std::size_t>(r)].rhs_shared;
    std::size_t i = 0;
    while (i < sh.size()) {
      const RankId owner = rows.rank_of(sh.rows[i]);
      std::size_t j = i;
      while (j < sh.size() && rows.rank_of(sh.rows[j]) == owner) {
        ++j;
      }
      transport.send(r, owner, tags::kRhsRows,
                     std::vector<GlobalIndex>(sh.rows.begin() + static_cast<std::ptrdiff_t>(i),
                                              sh.rows.begin() + static_cast<std::ptrdiff_t>(j)));
      transport.send(r, owner, tags::kRhsVals,
                     std::vector<Real>(sh.vals.begin() + static_cast<std::ptrdiff_t>(i),
                                       sh.vals.begin() + static_cast<std::ptrdiff_t>(j)));
      i = j;
    }
  });

  linalg::ParVector rhs(rt, rows);
  rt.parallel_for_ranks([&](RankId r) {
    const auto& own = *systems[static_cast<std::size_t>(r)].rhs_owned;
    EXW_REQUIRE(own.size() == static_cast<std::size_t>(rows.local_size(r)),
                "owned RHS must be dense over local rows");
    const auto local = rhs.local(r);
    std::copy(own.begin(), own.end(), local.begin());

    // Algorithm 2 lines 4-5: sort/reduce *only the received values*
    // (n_recv << n_own, the paper's key optimization).
    sparse::CooVector recv;
    for (RankId src{0}; src.value() < nranks; ++src) {
      if (!transport.has_message(r, src, tags::kRhsRows)) continue;
      auto ri = transport.recv<GlobalIndex>(r, src, tags::kRhsRows);
      auto rv = transport.recv<Real>(r, src, tags::kRhsVals);
      recv.rows.insert(recv.rows.end(), ri.begin(), ri.end());
      recv.vals.insert(recv.vals.end(), rv.begin(), rv.end());
    }
    if (algo == GlobalAssemblyAlgo::kGeneral) {
      // Baseline: sort/reduce over the full stacked vector rather than
      // just the received entries (the optimization of Algorithm 2).
      charge_sort(tracer, r, local.size() + recv.size(), kPairBytes);
    } else {
      charge_sort(tracer, r, recv.size(), kPairBytes);
    }
    recv.normalize();
    // Lines 6-7: copy owned, scatter-add the reduced receives.
    const GlobalIndex row0 = rows.first_row(r);
    for (std::size_t k = 0; k < recv.size(); ++k) {
      local[static_cast<std::size_t>(recv.rows[k] - row0)] += recv.vals[k];
    }
    charge_stream(tracer, r, local.size() + recv.size(), kPairBytes);
  });
  return rhs;
}

linalg::ParCsr assemble_matrix(par::Runtime& rt, const par::RowPartition& rows,
                               const par::RowPartition& cols,
                               const std::vector<sparse::Coo>& owned,
                               const std::vector<sparse::Coo>& shared,
                               GlobalAssemblyAlgo algo) {
  EXW_REQUIRE(owned.size() == shared.size(), "one COO pair per rank");
  std::vector<SystemView> views(owned.size());
  for (std::size_t r = 0; r < owned.size(); ++r) {
    views[r].owned = &owned[r];
    views[r].shared = &shared[r];
  }
  return assemble_matrix(rt, rows, cols, std::span<const SystemView>(views),
                         algo);
}

linalg::ParVector assemble_vector(par::Runtime& rt,
                                  const par::RowPartition& rows,
                                  const std::vector<RealVector>& owned,
                                  const std::vector<sparse::CooVector>& shared,
                                  GlobalAssemblyAlgo algo) {
  EXW_REQUIRE(owned.size() == shared.size(), "one RHS pair per rank");
  std::vector<SystemView> views(owned.size());
  for (std::size_t r = 0; r < owned.size(); ++r) {
    views[r].rhs_owned = &owned[r];
    views[r].rhs_shared = &shared[r];
  }
  return assemble_vector(rt, rows, std::span<const SystemView>(views), algo);
}

}  // namespace exw::assembly
