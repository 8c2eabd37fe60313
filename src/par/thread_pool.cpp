#include "par/thread_pool.hpp"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "par/contract.hpp"
#include "perf/purity.hpp"

namespace exw::par {

namespace {

thread_local bool t_in_region = false;
std::atomic<bool> g_serial{false};

int configured_threads() {
  // Read once, before any worker exists, so the mt-unsafe getenv is safe.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* s = std::getenv("EXW_NUM_THREADS")) {
    return parse_num_threads(s);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? checked_narrow<int>(hw) : 1;
}

}  // namespace

int parse_num_threads(std::string_view value) {
  int n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc{} || ptr != end || n < 1 || n > kMaxThreads) {
    EXW_THROW("EXW_NUM_THREADS='" + std::string(value) +
              "' is not a whole number in [1, " +
              std::to_string(kMaxThreads) + "]");
  }
  return n;
}

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::mutex mutex;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  std::uint64_t epoch = 0;
  const FunctionRef* fn = nullptr;
  int n = 0;
#if EXW_PURITY_CHECKS_ENABLED
  /// Purity region open on the orchestrator when it dispatched the
  /// current epoch; workers inherit it so rank-body allocations are
  /// attributed (and, in fatal mode, flagged) exactly as if they ran
  /// inline. Written under `mutex` before the epoch bump, so the epoch
  /// handshake publishes it to every worker.
  perf::purity::RegionToken region;
#endif
  std::atomic<int> next{0};
  int finished = 0;  ///< workers done with the current epoch
  bool stop = false;
  std::exception_ptr error;
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl), num_threads_(configured_threads()) {
  // The orchestrator participates in every region, so spawn one fewer.
  for (int t = 0; t < num_threads_ - 1; ++t) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv_start.notify_all();
  for (auto& w : impl_->workers) {
    w.join();
  }
  delete impl_;
}

void ThreadPool::run_bodies() {
  t_in_region = true;
#if EXW_PURITY_CHECKS_ENABLED
  // No-op on the orchestrator (its region stack is already open); on a
  // pool worker this pushes the dispatching thread's innermost region.
  perf::purity::ScopedRegionInherit inherit(impl_->region);
#endif
  for (;;) {
    const int i = impl_->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= impl_->n) break;
    try {
#if EXW_CONTRACT_CHECKS_ENABLED
      contract::ScopedRankContext ctx(RankId{i});
#endif
      (*impl_->fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(impl_->mutex);
      if (!impl_->error) {
        impl_->error = std::current_exception();
      }
    }
  }
  t_in_region = false;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(impl_->mutex);
      impl_->cv_start.wait(
          lk, [&] { return impl_->stop || impl_->epoch != seen; });
      if (impl_->stop) return;
      seen = impl_->epoch;
    }
    run_bodies();
    {
      std::lock_guard<std::mutex> lk(impl_->mutex);
      impl_->finished += 1;
      if (impl_->finished == checked_narrow<int>(impl_->workers.size())) {
        impl_->cv_done.notify_one();
      }
    }
  }
}

void ThreadPool::parallel_for(int n, FunctionRef fn) {
  if (n <= 0) return;
  if (num_threads_ <= 1 || n == 1 || t_in_region ||
      g_serial.load(std::memory_order_relaxed)) {
    // Mirror run_bodies(): run every body even if one throws, then
    // rethrow the first failure. Otherwise a throwing body would leave
    // different side effects (tracer charges, pending transport
    // messages) in serial vs. threaded runs.
#if EXW_CONTRACT_CHECKS_ENABLED
    // A nested call is part of the enclosing rank's body: keep the outer
    // rank context and region. Only a top-level inline region (serial
    // mode, single-thread pool, n == 1) opens a checked region of its own.
    const bool top_level =
        !t_in_region && contract::current_rank() == contract::kNoRank;
    contract::RegionScope region(top_level);
#endif
    std::exception_ptr error;
    for (int i = 0; i < n; ++i) {
      try {
#if EXW_CONTRACT_CHECKS_ENABLED
        if (top_level) {
          contract::ScopedRankContext ctx(RankId{i});
          fn(i);
          continue;
        }
#endif
        fn(i);
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
      }
    }
    if (error) {
      std::rethrow_exception(error);
    }
    return;
  }
#if EXW_CONTRACT_CHECKS_ENABLED
  contract::RegionScope region(true);
#endif
  {
    std::lock_guard<std::mutex> lk(impl_->mutex);
    impl_->fn = &fn;
#if EXW_PURITY_CHECKS_ENABLED
    impl_->region = perf::purity::capture();
#endif
    impl_->n = n;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->finished = 0;
    impl_->error = nullptr;
    impl_->epoch += 1;
  }
  impl_->cv_start.notify_all();
  run_bodies();
  std::unique_lock<std::mutex> lk(impl_->mutex);
  impl_->cv_done.wait(lk, [&] {
    return impl_->finished == checked_narrow<int>(impl_->workers.size());
  });
  impl_->fn = nullptr;
  if (impl_->error) {
    std::exception_ptr e = impl_->error;
    impl_->error = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

bool in_parallel_region() { return t_in_region; }

void set_serial_mode(bool serial) {
  g_serial.store(serial, std::memory_order_relaxed);
}

bool serial_mode() { return g_serial.load(std::memory_order_relaxed); }

void parallel_for(int n, FunctionRef fn) {
  ThreadPool::instance().parallel_for(n, fn);
}

}  // namespace exw::par
