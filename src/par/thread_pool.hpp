#pragma once
/// \file thread_pool.hpp
/// Shared-memory execution of simulated-rank local phases.
///
/// The reproduction drives SPMD algorithms rank-sequentially from one
/// orchestrator thread, but each rank's local phase is embarrassingly
/// parallel by construction (that is the paper's whole premise). The
/// process-wide ThreadPool below runs `fn(0..n-1)` concurrently so the
/// wall-clock of the Table 1 / Fig. 3-10 benchmarks no longer grows
/// linearly with the simulated rank count.
///
/// Contract for rank bodies executed through parallel_for():
///   * body `i` runs exactly once, on some pool thread (or inline);
///   * a body may freely mutate rank-i-owned state and call
///     Transport::send / recv for rank i (channels are lock-sharded),
///     which charge Tracer::message_sent / message_received for rank i,
///     and Tracer::kernel for rank i — so every rank's counters have a
///     single writer;
///   * phase push/pop must stay on the orchestrator thread — the open
///     phase stack is frozen for the duration of the region;
///   * nested parallel_for() calls run inline on the calling thread;
///   * the first exception thrown by any body is rethrown on the
///     orchestrator thread once every body has finished.
///
/// This contract is machine-checked: parallel_for wraps each body in a
/// contract::ScopedRankContext and opens a checked region, and the
/// layers that carry the contract (Transport, Tracer, the per-rank
/// accessors in linalg/assembly) reject cross-rank access with an
/// exw::Error naming the offending ranks. See par/contract.hpp; checks
/// compile away when EXW_CHECKS=OFF.
///
/// Sizing: EXW_NUM_THREADS if set, else std::thread::hardware_concurrency.
/// EXW_NUM_THREADS must be a whole decimal number in [1, kMaxThreads];
/// anything else throws exw::Error when the pool is first used.
/// EXW_NUM_THREADS=1 (or set_serial_mode(true), the benches' --serial
/// flag) runs every region inline for determinism debugging; the parallel
/// path is bitwise-identical anyway because each rank body is unchanged
/// and all reductions happen on the orchestrator.

#include <string_view>
#include <type_traits>
#include <utility>

namespace exw::par {

/// Non-owning, non-allocating reference to a callable `void(int)`.
///
/// parallel_for used to take `const std::function<void(int)>&`; every
/// call site passes a stack lambda, and converting a lambda whose
/// captures exceed the small-buffer size into a std::function heap-
/// allocates — on the *warm* path, once per dispatch. FunctionRef is two
/// words (object pointer + thunk) and never owns, which is exactly right
/// for a fork-join region: the callable provably outlives the call.
class FunctionRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_v<F&, int>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, int i) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(i);
        }) {}

  void operator()(int i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, int);
};

class ThreadPool {
 public:
  /// The process-wide pool (created on first use, joined at exit).
  static ThreadPool& instance();

  /// Worker count the pool was sized for (>= 1; 1 means inline only).
  int num_threads() const { return num_threads_; }

  /// Run fn(i) for every i in [0, n), blocking until all bodies return.
  /// The callable is taken by non-owning reference (it outlives the
  /// region by construction), so dispatch never allocates.
  void parallel_for(int n, FunctionRef fn);

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  void worker_loop();
  void run_bodies();

  struct Impl;
  Impl* impl_;
  int num_threads_ = 1;
};

/// Largest pool size EXW_NUM_THREADS may ask for.
inline constexpr int kMaxThreads = 1024;

/// Parse an EXW_NUM_THREADS value: a whole decimal number in
/// [1, kMaxThreads], with nothing before or after it. Throws exw::Error
/// naming the variable and the value otherwise.
int parse_num_threads(std::string_view value);

/// True while the calling thread is executing a parallel_for body.
bool in_parallel_region();

/// Force all regions inline (the benches' --serial escape hatch).
void set_serial_mode(bool serial);
bool serial_mode();

/// Convenience: ThreadPool::instance().parallel_for honoring serial_mode().
void parallel_for(int n, FunctionRef fn);

}  // namespace exw::par
