#pragma once
/// \file runtime.hpp
/// The simulated distributed world: ranks, transport, and cost accounting.
///
/// The reproduction runs SPMD algorithms "rank-sequentially": distributed
/// operations are driven globally and loop over ranks for their local
/// phases, exchanging data through the in-memory Transport below. The
/// Transport mirrors the MPI message-passing model (explicit send/recv with
/// source, destination, and tag; exchange = the pack/communicate/unpack
/// halo pattern) so the code reads like the real program, and it charges
/// every message to the Tracer's cost model.
///
/// Local phases may also run concurrently, one thread per simulated rank,
/// via Runtime::parallel_for_ranks (see thread_pool.hpp for the threading
/// contract). Channels are sharded by destination rank with one lock per
/// shard, so sends from concurrent rank bodies are safe without
/// serializing the whole transport; each channel recycles its message
/// buffers, so a steady-state send or recv does not allocate.

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "par/comm_audit.hpp"
#include "par/contract.hpp"
#include "par/thread_pool.hpp"
#include "perf/purity.hpp"
#include "perf/tracer.hpp"

namespace exw::par {

/// In-memory point-to-point channels between simulated ranks.
class Transport {
 public:
  /// `audit` (optional, owned by Runtime) receives a ledger record for
  /// every send/recv when EXW_CHECKS=ON; see par/comm_audit.hpp.
  Transport(perf::Tracer* tracer, int nranks,
            comm_audit::Auditor* audit = nullptr);

  /// Post a message: the payload is copied into the (src, dst, tag)
  /// channel before returning, so the caller may reuse its buffer at
  /// once. The sender's half of the message is charged here (see
  /// Tracer::message_sent). Safe to call from concurrent rank bodies;
  /// per-channel FIFO order is preserved because each channel has a
  /// single sender (enforced by the contract checker inside parallel
  /// regions). With the comm audit ON, the declaration grows a
  /// defaulted std::source_location parameter capturing the call site.
  template <typename T>
  void send(RankId src, RankId dst, int tag,
            std::span<const T> payload EXW_COMM_SITE_DECL) {
    static_assert(std::is_trivially_copyable_v<T>);
    require_rank(src, "send src");
    require_rank(dst, "send dst");
    // The checker's per-region channel registry is instrumentation (gone
    // with the checks), not warm-path state, like the comm-audit ledger.
    EXW_CONTRACT_CHECK(EXW_PURITY_ALLOW("contract-check channel registry");
                       contract::check_send(src, dst, tag, "Transport::send"));
    // Ledger entry goes in before the channel push: a concurrent receiver
    // can only observe the message after the push, so its matching recv
    // record always finds this send already on the channel FIFO.
    EXW_COMM_AUDIT_RECORD(if (audit_ != nullptr) audit_->on_send(
        src, dst, tag, payload.size(), payload.size_bytes(), exw_site));
    if (tracer_ != nullptr) {
      tracer_->message_sent(src, dst,
                            static_cast<double>(payload.size_bytes()));
    }
    post(src, dst, tag, std::as_bytes(payload), type_id<T>());
  }

  template <typename T>
  void send(RankId src, RankId dst, int tag,
            const std::vector<T>& payload EXW_COMM_SITE_DECL) {
    send(src, dst, tag, std::span<const T>(payload) EXW_COMM_SITE_ARG);
  }

  /// Receive the oldest message on (src, dst, tag) straight into `out`,
  /// charging the receiver's half (Tracer::message_received). Throws if
  /// none is pending; throws after consuming it unless it carries exactly
  /// out.size() elements of type T. The channel keeps the message's
  /// buffer for its next send.
  template <typename T>
  void recv_into(RankId dst, RankId src, int tag,
                 std::span<T> out EXW_COMM_SITE_DECL) {
    receive(dst, src, tag, out, /*keep_buffer=*/true EXW_COMM_SITE_ARG);
  }

  /// Receive the oldest matching message into a new vector. For cold
  /// protocols whose payload size the receiver does not know up front
  /// (assembly routing, row fetches): they do not recur in a warm step,
  /// so the channel frees the message's buffer instead of pinning its
  /// high-water size for the rest of the run.
  template <typename T>
  std::vector<T> recv(RankId dst, RankId src, int tag EXW_COMM_SITE_DECL) {
    std::vector<T> out(pending_bytes(dst, src, tag) / sizeof(T));
    receive(dst, src, tag, std::span<T>(out),
            /*keep_buffer=*/false EXW_COMM_SITE_ARG);
    return out;
  }

  /// True if a message from src to dst with tag is pending.
  bool has_message(RankId dst, RankId src, int tag) const;

  /// No messages left anywhere (useful test invariant: protocols drain).
  bool drained() const;

 private:
  /// One in-flight message. Its byte buffer outlives the message:
  /// recv_into leaves the capacity in place for the channel's next send.
  struct Slot {
    std::vector<std::byte> buf;  ///< capacity; only [0, size) is payload
    std::size_t size = 0;
    const void* type = nullptr;  ///< type_id<T>() of the payload
  };

  /// FIFO of one (src, dst, tag) channel: a ring of recycled slots that
  /// grows only while more messages are in flight than ever before.
  struct Channel {
    int tag = 0;
    int next = -1;  ///< next channel from the same src (tag chain)
    std::vector<Slot> ring;
    std::size_t head = 0;   ///< oldest pending message
    std::size_t count = 0;  ///< pending messages
  };

  /// Every channel into one destination rank, behind one lock: concurrent
  /// senders to different destinations never contend, and the common
  /// in-region pattern (every rank draining its own inbox while posting
  /// to neighbors) contends only on true neighbor pairs. A channel is
  /// found by indexing `first` with the source rank and walking that
  /// source's short tag chain — no ordered-map search.
  struct Shard {
    mutable std::mutex mutex;
    std::vector<int> first;  ///< [src] -> first channel index, -1 if none
    std::vector<Channel> channels;
  };

  struct Delivery {
    std::size_t bytes = 0;  ///< payload size of the consumed message
    bool matched = false;   ///< payload size and type fit the receiver
  };

  /// One address per payload type, so a recv can reject a message
  /// serialized from a different element type of the same size.
  template <typename T>
  static const void* type_id() {
    static constexpr char id = 0;
    return &id;
  }

  /// All public entry points validate ranks first: an out-of-range id
  /// must throw, not silently alias another rank's shard via modulo
  /// wrap-around and corrupt its channels.
  void require_rank(RankId r, const char* what) const {
    EXW_REQUIRE(r.value() >= 0 && r.value() < nranks_,
                std::string(what) + " rank out of range [0, nranks)");
  }

  /// Append a message to the (src, dst, tag) FIFO, creating the channel
  /// or growing its ring/buffer only when it has never been this full.
  void post(RankId src, RankId dst, int tag, std::span<const std::byte> bytes,
            const void* type);

  /// Common body of recv_into and recv: consume, audit, charge, check.
  template <typename T>
  void receive(RankId dst, RankId src, int tag, std::span<T> out,
               bool keep_buffer EXW_COMM_SITE_DEF) {
    static_assert(std::is_trivially_copyable_v<T>);
    require_rank(dst, "recv dst");
    require_rank(src, "recv src");
    EXW_CONTRACT_CHECK(contract::check_recv(dst, src, tag, "Transport::recv"));
    const Delivery d = take(dst, src, tag, std::as_writable_bytes(out),
                            type_id<T>(), keep_buffer);
    // Recorded once the message is consumed, so the audit matches exactly
    // the messages that were delivered (and catches element-count punning
    // before the transport's own type check below).
    EXW_COMM_AUDIT_RECORD(if (audit_ != nullptr) audit_->on_recv(
        dst, src, tag, d.bytes / sizeof(T), d.bytes, exw_site));
    if (tracer_ != nullptr) {
      tracer_->message_received(src, dst, static_cast<double>(d.bytes));
    }
    EXW_REQUIRE(d.matched, "message size/type mismatch");
  }

  /// Pop the oldest message on (src, dst, tag), copying it into `out`
  /// when size and type match, and free its buffer unless `keep_buffer`;
  /// throws if none is pending.
  Delivery take(RankId dst, RankId src, int tag, std::span<std::byte> out,
                const void* type, bool keep_buffer);
  /// Payload size of the oldest pending message; throws if none.
  std::size_t pending_bytes(RankId dst, RankId src, int tag) const;

  static const Channel* find(const Shard& sh, RankId src, int tag);
  static Channel* find(Shard& sh, RankId src, int tag);

  perf::Tracer* tracer_;
  comm_audit::Auditor* audit_;  ///< not owned; null when audit is OFF
  std::vector<Shard> shards_;   ///< [dst]
  int nranks_;
};

/// The simulated world handed to every distributed component.
class Runtime {
 public:
  /// With EXW_CHECKS=ON the constructor also creates the world's
  /// communication auditor, feeds it from the transport and collectives,
  /// and hooks it to the tracer's phase boundaries; the destructor runs
  /// a never-throwing teardown audit (see comm_audit.hpp).
  explicit Runtime(int nranks);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int nranks() const { return nranks_; }
  perf::Tracer& tracer() { return tracer_; }
  const perf::Tracer& tracer() const { return tracer_; }
  Transport& transport() { return transport_; }

  /// Run the full communication audit now (collective-sequence
  /// comparison + unmatched-send scan) and throw exw::Error on the first
  /// problem. No-op when the audit is compiled out. Tests use this to
  /// assert on violations; production code gets the same scan, without
  /// the throw, from the destructor.
  void comm_audit_verify();

  /// The world's auditor, for introspection; null when EXW_CHECKS=OFF.
  comm_audit::Auditor* comm_auditor();

  /// Run fn(r) for every rank, potentially concurrently (one thread per
  /// rank body, blocking until all return). Rank bodies stay internally
  /// sequential, so results are bitwise-identical to the serial loop.
  /// Templated (not std::function) so warm-path dispatch never heap-
  /// allocates: the callable travels by non-owning FunctionRef.
  template <typename F>
  void parallel_for_ranks(F&& fn) const {
    parallel_for(nranks_, [&fn](int i) { fn(RankId{i}); });
  }

  /// Sum a per-rank contribution into one global value, charging one
  /// allreduce. The SPMD analogue of MPI_Allreduce(MPI_SUM). Like
  /// Transport::send/recv, each collective grows a defaulted source-
  /// location parameter under the comm audit, so divergence reports name
  /// the caller's call site.
  double allreduce_sum(
      const std::vector<double>& per_rank_values EXW_COMM_SITE_DECL);

  /// Elementwise allreduce over per-rank vectors of equal length.
  std::vector<double> allreduce_sum_vec(
      const std::vector<std::vector<double>>& per_rank_values
          EXW_COMM_SITE_DECL);

  GlobalIndex allreduce_sum(
      const std::vector<GlobalIndex>& per_rank_values EXW_COMM_SITE_DECL);
  GlobalIndex allreduce_max(
      const std::vector<GlobalIndex>& per_rank_values EXW_COMM_SITE_DECL);

 private:
  perf::Tracer tracer_;
#if EXW_COMM_AUDIT_ENABLED
  /// Declared between tracer_ and transport_: constructed after the
  /// tracer it listens to, before the transport that feeds it, destroyed
  /// in the reverse order.
  std::unique_ptr<comm_audit::Auditor> audit_;
#endif
  Transport transport_;
  int nranks_;
};

}  // namespace exw::par
