#pragma once
/// \file comm_audit.hpp
/// Runtime communication-determinism audit for the simulated runtime.
///
/// Changes such as s-step GMRES or 10k-rank streaming would reorder and
/// batch collectives — exactly the class of change that
/// introduces rank-divergent collective sequences, tag collisions, and
/// deadlock-shaped bugs that neither the threading contract (PR 3) nor
/// the purity sanitizer (PR 8) can see. This layer makes the
/// communication contract machine-checked the same way those layers
/// check theirs:
///
///   * every Transport collective (Runtime::allreduce_*) and
///     point-to-point (Transport::send/recv) records
///     (op kind, call-site file:line, element count, tag, neighbor)
///     into a per-rank *communication ledger* (std::source_location
///     captures the caller's site; no macros at call sites);
///   * at every phase boundary (Tracer::pop_phase, via the
///     PhasePopListener hook) and at Runtime teardown, a cross-rank
///     *sequence comparison* checks that all ranks recorded the same
///     collective sequence; the first divergence throws an exw::Error
///     naming the divergent call site and both ranks — the
///     mismatched-collective / deadlock bug class, caught at the
///     boundary instead of hanging a 10k-rank run;
///   * an end-of-run audit flags unmatched sends (messages posted but
///     never received) with the posting call site, and recv payloads
///     whose byte size disagrees with the matching send (type punning
///     across a channel);
///   * every tag must come from the par::tags registry — an
///     unregistered tag is rejected at the first send/recv;
///   * comm_audit::report()/summary() mirror contract::report() and
///     purity::report().
///
/// Ledger mechanics and the purity interplay: collectives recorded from
/// the orchestrator (no rank context) are inherently identical across
/// ranks, so they only bump a shared epoch counter — no storage, no
/// allocation. Only rank-context collectives (recorded inside a
/// ScopedRankContext, i.e. from a parallel_for_ranks body) are stored,
/// stamped with the current epoch so interleaving divergence is caught;
/// today's tree has none, so warm paths allocate nothing for
/// collectives. Point-to-point channels keep a vector-backed FIFO of
/// *unmatched* sends that is cleared (capacity retained) whenever it
/// drains, so steady-state warm refills allocate nothing after the
/// first pass — the reuse benches' allocation-steadiness floors still
/// hold with the audit ON. What bookkeeping does allocate runs under
/// EXW_PURITY_ALLOW("comm-audit ledger"), the fourth allowlisted family
/// (see perf/purity.hpp).
///
/// Everything compiles away when EXW_CHECKS=OFF (the CMake switch for
/// all runtime check layers; default ON except Release): the recording
/// macros expand to
/// ((void)0), the site parameters vanish from the Transport/Runtime
/// signatures, comm_audit.cpp is not compiled, and the inline stubs
/// below keep report()/summary() callable — production builds carry
/// zero overhead and bit-identical behavior.
///
/// The static half of the discipline is the comm rule family of
/// tools/lint.py (raw tag literals, collectives under rank-dependent
/// branching, unordered-container iteration feeding FP accumulation)
/// and the compile-time
/// uniqueness check in par/tags.hpp. DESIGN.md §15 documents all of it.

#include <string>

#include "common/types.hpp"

#ifndef EXW_COMM_AUDIT_ENABLED
#define EXW_COMM_AUDIT_ENABLED 0
#endif

#if EXW_COMM_AUDIT_ENABLED
#include <source_location>

#include <cstddef>
#include <mutex>
#include <vector>

#include "perf/tracer.hpp"
#endif

namespace exw::par::comm_audit {

/// True when the build carries the audit (EXW_CHECKS=ON).
constexpr bool enabled() { return EXW_COMM_AUDIT_ENABLED != 0; }

/// Counters of everything the audit looked at (for tests and triage).
/// Process-wide across all Runtime instances, mirroring
/// contract::report() / purity::report(). All-zero when compiled out.
struct Report {
  long long collectives = 0;     ///< collective records taken
  long long sends = 0;           ///< send records taken
  long long recvs = 0;           ///< recv records taken
  long long phase_checks = 0;    ///< cross-rank sequence comparisons run
  long long final_checks = 0;    ///< full end-of-run audits run
  long long violations = 0;      ///< divergences/unmatched/tag rejections
  long long teardown_reports = 0;  ///< violations surfaced at ~Runtime
};

#if EXW_COMM_AUDIT_ENABLED

Report report();
void reset();
std::string summary();

/// What a ledger entry describes.
enum class OpKind : int {
  kAllreduceSum = 0,
  kAllreduceSumVec,
  kAllreduceMax,
  kSend,
  kRecv,
};
const char* op_name(OpKind kind);

/// One ledger record. Sites are the *caller's* file:line, captured by
/// the std::source_location default argument on Transport::send/recv and
/// Runtime::allreduce_*. Plain pointers + integers: taking a record
/// never allocates.
struct Record {
  OpKind kind = OpKind::kSend;
  const char* file = "?";
  int line = 0;
  std::size_t count = 0;          ///< element count of the payload
  std::size_t bytes = 0;          ///< payload bytes (p2p matching key)
  int tag = -1;                   ///< channel tag (-1 for collectives)
  int neighbor = -1;              ///< dst for send, src for recv
  unsigned long long epoch = 0;   ///< orchestrator collectives seen first
};

/// Per-Runtime communication auditor. One instance per simulated world,
/// owned by par::Runtime; Transport and the allreduce entry points feed
/// it. Thread-safe: records may arrive from concurrent rank bodies.
class Auditor final : public perf::PhasePopListener {
 public:
  explicit Auditor(int nranks);
  ~Auditor() override;
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // --- recording (called by Transport / Runtime) -------------------------

  /// Record a collective. Outside any rank context (the orchestrator-
  /// driven global collectives) this bumps the shared epoch — all ranks
  /// see it by construction. Inside a rank body it is stored in that
  /// rank's ledger for cross-rank comparison at the next boundary.
  void on_collective(OpKind kind, std::size_t count,
                     const std::source_location& site);
  /// Record a point-to-point send; rejects unregistered tags.
  void on_send(RankId src, RankId dst, int tag, std::size_t count,
               std::size_t bytes, const std::source_location& site);
  /// Record a matched recv; rejects unregistered tags and payload-size
  /// mismatches against the matching send.
  void on_recv(RankId dst, RankId src, int tag, std::size_t count,
               std::size_t bytes, const std::source_location& site);

  // --- checks ------------------------------------------------------------

  /// Cross-rank collective-sequence comparison over everything recorded
  /// since the last boundary. Throws exw::Error naming the first
  /// divergent call site and both ranks; on success the window advances.
  void check_collective_sequences(const char* where);

  /// Full audit: sequence comparison plus unmatched-send scan. Throws
  /// exw::Error naming the channel and posting site of the first
  /// message that was sent but never received.
  void final_check(const char* where);

  /// Destructor-safe variant of final_check(): never throws; problems
  /// are counted in report() and summarized on stderr. Returns the
  /// number of problems found. Called by ~Runtime.
  int teardown_check() noexcept;

  /// Drop all pending (unchecked) state — used by tests that have
  /// asserted on a deliberate violation and want a quiet teardown.
  void discard_pending();

  /// Tracer phase boundary hook: audits the closing phase.
  void on_phase_pop(const std::string& name) override;

  // --- introspection (tests) ---------------------------------------------

  int nranks() const { return nranks_; }
  long long rank_sends(RankId r) const;
  long long rank_recvs(RankId r) const;
  /// Rank-context collective records awaiting the next boundary check.
  std::size_t pending_collectives(RankId r) const;
  /// Messages currently sent but not yet received, over all channels.
  std::size_t unreceived_messages() const;
  /// Orchestrator-driven collectives recorded (the shared epoch).
  unsigned long long collective_epoch() const;

 private:
  struct PerRank;
  struct Channel;

  [[noreturn]] void violation(const std::string& msg);
  /// Cross-rank comparison + window advance; "" when consistent.
  /// Caller holds impl_->mutex.
  std::string sequences_error_locked(const char* where);
  /// Unmatched-send scan + report-once cleanup; "" when fully drained.
  /// Caller holds impl_->mutex.
  std::string unmatched_error_locked(const char* where);

  int nranks_;
  struct Impl;
  Impl* impl_;
};

// Site-capture parameter helpers: with the audit ON, Transport::send /
// recv and Runtime::allreduce_* grow a defaulted std::source_location
// parameter recording the *caller's* file:line; with it OFF the
// signatures are exactly what they were before this layer existed.
// EXW_COMM_SITE_DECL goes on declarations (carries the default),
// EXW_COMM_SITE_DEF on out-of-line definitions, EXW_COMM_SITE_ARG on
// calls that forward the captured site to another overload.
#define EXW_COMM_SITE_DECL \
  , std::source_location exw_site = std::source_location::current()
#define EXW_COMM_SITE_DEF , std::source_location exw_site
#define EXW_COMM_SITE_ARG , exw_site
/// Run an audit-recording statement (compiled out when OFF).
#define EXW_COMM_AUDIT_RECORD(...) \
  do {                             \
    __VA_ARGS__;                   \
  } while (0)

#else  // !EXW_COMM_AUDIT_ENABLED

class Auditor;  // never defined; pointers to it stay null

inline Report report() { return {}; }
inline void reset() {}
inline std::string summary() {
  return "comm-audit: disabled (EXW_CHECKS=OFF)";
}

#define EXW_COMM_SITE_DECL
#define EXW_COMM_SITE_DEF
#define EXW_COMM_SITE_ARG
#define EXW_COMM_AUDIT_RECORD(...) ((void)0)

#endif  // EXW_COMM_AUDIT_ENABLED

}  // namespace exw::par::comm_audit
