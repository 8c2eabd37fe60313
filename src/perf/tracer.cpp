#include "perf/tracer.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "par/contract.hpp"
#include "perf/purity.hpp"

namespace exw::perf {

namespace {

/// Blocking-collective term shared by modeled_time and comm_time: every
/// collective of the phase priced at the phase's average payload.
double collective_time(const PhaseStats& s, const MachineModel& m) {
  const int nranks = checked_narrow<int>(s.rank.size());
  const double avg_coll_bytes =
      s.collectives > 0 ? s.coll_bytes / static_cast<double>(s.collectives)
                        : 0.0;
  return static_cast<double>(s.collectives) *
         m.allreduce_time(avg_coll_bytes, nranks);
}

}  // namespace

double PhaseStats::modeled_time(const MachineModel& m) const {
  double worst = 0.0;
  const double f = m.flops_per_s * m.efficiency;
  const double b = m.bytes_per_s * m.efficiency;
  for (const RankWork& w : rank) {
    const double compute = std::max(w.flops / f, w.bytes / b) +
                           static_cast<double>(w.kernels) * m.kernel_launch_s;
    const double comm = static_cast<double>(w.msgs) * m.msg_latency_s +
                        w.msg_bytes / m.msg_bytes_per_s;
    worst = std::max(worst, compute + comm);
  }
  return worst + collective_time(*this, m);
}

double PhaseStats::compute_time(const MachineModel& m) const {
  double worst = 0.0;
  const double f = m.flops_per_s * m.efficiency;
  const double b = m.bytes_per_s * m.efficiency;
  for (const RankWork& w : rank) {
    worst = std::max(worst, std::max(w.flops / f, w.bytes / b) +
                                static_cast<double>(w.kernels) * m.kernel_launch_s);
  }
  return worst;
}

double PhaseStats::comm_time(const MachineModel& m) const {
  double worst = 0.0;
  for (const RankWork& w : rank) {
    worst = std::max(worst, static_cast<double>(w.msgs) * m.msg_latency_s +
                                w.msg_bytes / m.msg_bytes_per_s);
  }
  return worst + collective_time(*this, m);
}

long PhaseStats::total_kernels() const {
  long n = 0;
  for (const auto& w : rank) n += w.kernels;
  return n;
}

long PhaseStats::total_messages() const { return messages; }

double PhaseStats::total_flops() const {
  double n = 0;
  for (const auto& w : rank) n += w.flops;
  return n;
}

double PhaseStats::total_bytes() const {
  double n = 0;
  for (const auto& w : rank) n += w.bytes;
  return n;
}

double PhaseStats::total_index_bytes() const {
  double n = 0;
  for (const auto& w : rank) n += w.index_bytes;
  return n;
}

double PhaseStats::total_value_bytes() const {
  return total_bytes() - total_index_bytes();
}

double PhaseStats::total_value_bytes_f32() const {
  double n = 0;
  for (const auto& w : rank) n += w.value_bytes_f32;
  return n;
}

double PhaseStats::total_value_bytes_f64() const {
  return total_value_bytes() - total_value_bytes_f32();
}

double PhaseStats::max_kernel_flops() const {
  double m = 0;
  for (const auto& w : rank) m = std::max(m, w.max_kernel_flops);
  return m;
}

Tracer::Tracer(int nranks) : nranks_(nranks) {
  EXW_REQUIRE(nranks >= 1, "tracer needs at least one rank");
  // Root phase: untagged work is never lost.
  open_.push_back(&stats_for(""));
  stack_.push_back("");
}

PhaseStats& Tracer::stats_for(const std::string& name) {
  auto it = phases_.find(name);  // exw-warm-ok: the tracer IS the instrument
  if (it == phases_.end()) {
    it = phases_.emplace(  // exw-warm-ok: once per phase name (cold)
        name, PhaseStats{}).first;
    it->second.rank.assign(  // exw-warm-ok: cold first touch of phase name
        static_cast<std::size_t>(nranks_), RankWork{});
    order_.push_back(name);  // exw-warm-ok: cold first touch of phase name
  }
  return it->second;
}

void Tracer::push_phase(const std::string& name) {
  EXW_CONTRACT_CHECK(par::contract::check_phase_mutation("push_phase"));
  const std::string full =
      stack_.back().empty() ? name : stack_.back() + "/" + name;
  open_.push_back(&stats_for(full));
  stack_.push_back(full);
  const auto t = purity::totals();
  alloc_snap_.emplace_back(t.allocs, t.bytes);
}

void Tracer::pop_phase() {
  EXW_CONTRACT_CHECK(par::contract::check_phase_mutation("pop_phase"));
  EXW_REQUIRE(stack_.size() > 1, "pop_phase with no open phase");
  // Fold the process-wide allocation delta into the closing phase. The
  // delta naturally includes nested phases' activity, matching how
  // kernel charges accrue to every open phase.
  const auto t = purity::totals();
  const auto& [a0, b0] = alloc_snap_.back();
  PhaseStats& s = *open_.back();
  s.allocs += static_cast<long long>(t.allocs - a0);
  s.alloc_bytes += static_cast<double>(t.bytes - b0);
  alloc_snap_.pop_back();
  open_.pop_back();
  const std::string closed = std::move(stack_.back());
  stack_.pop_back();
  // Boundary hook last, with the pop fully applied, so a listener that
  // throws (a failed boundary audit) leaves the phase stack consistent.
  if (pop_listener_ != nullptr) {
    pop_listener_->on_phase_pop(closed);
  }
}

void Tracer::kernel(RankId r, double flops, double bytes) {
  kernel_split(r, flops, bytes, 0.0);
}

void Tracer::kernel_split(RankId r, double flops, double value_bytes,
                          double index_bytes) {
  kernel_split_prec(r, flops, value_bytes, 0.0, index_bytes);
}

void Tracer::kernel_split_prec(RankId r, double flops, double value_bytes_f64,
                               double value_bytes_f32, double index_bytes) {
  EXW_ASSERT(r.value() >= 0 && r.value() < nranks_);
  EXW_CONTRACT_CHECK(par::contract::check_kernel_charge(r));
  // Every RankWork field of rank r — kernel and message charges alike —
  // is written only by the thread running rank r's body, so plain
  // accumulation is race-free even inside parallel regions (the stack is
  // frozen there, so open_ is too).
  for (PhaseStats* s : open_) {
    auto& w = s->rank[static_cast<std::size_t>(r)];
    w.flops += flops;
    w.bytes += value_bytes_f64 + value_bytes_f32 + index_bytes;
    w.index_bytes += index_bytes;
    w.value_bytes_f32 += value_bytes_f32;
    w.kernels += 1;
    w.max_kernel_flops = std::max(w.max_kernel_flops, flops);
  }
}

void Tracer::message_sent(RankId src, [[maybe_unused]] RankId dst,
                          double bytes) {
  EXW_ASSERT(src.value() >= 0 && src.value() < nranks_ &&
             dst.value() >= 0 && dst.value() < nranks_);
  EXW_CONTRACT_CHECK(par::contract::check_message_charge(src));
  for (PhaseStats* s : open_) {
    auto& w = s->rank[static_cast<std::size_t>(src)];
    w.msgs += 1;
    w.msg_bytes += bytes;
    // The one counter every sender shares. Relaxed order suffices: the
    // region barrier publishes the total.
    std::atomic_ref<long>(s->messages).fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::message_received(RankId src, RankId dst, double bytes) {
  EXW_ASSERT(src.value() >= 0 && src.value() < nranks_ &&
             dst.value() >= 0 && dst.value() < nranks_);
  EXW_CONTRACT_CHECK(par::contract::check_message_recv_charge(dst));
  if (dst == src) return;
  for (PhaseStats* s : open_) {
    auto& w = s->rank[static_cast<std::size_t>(dst)];
    w.msgs += 1;
    w.msg_bytes += bytes;
  }
}

void Tracer::message(RankId src, RankId dst, double bytes) {
  message_sent(src, dst, bytes);
  message_received(src, dst, bytes);
}

void Tracer::collective(double bytes) {
  for (PhaseStats* s : open_) {
    s->collectives += 1;
    s->coll_bytes += bytes;
  }
}

double Tracer::phase_time(const std::string& name,
                          const MachineModel& m) const {
  return phase(name).modeled_time(m);
}

const PhaseStats& Tracer::phase(const std::string& name) const {
  auto it = phases_.find(name);
  EXW_REQUIRE(it != phases_.end(), "unknown phase: " + name);
  return it->second;
}

bool Tracer::has_phase(const std::string& name) const {
  return phases_.contains(name);
}

std::vector<std::string> Tracer::phase_names() const { return order_; }

void Tracer::reset() {
  for (auto& [name, s] : phases_) {
    std::fill(s.rank.begin(), s.rank.end(), RankWork{});
    s.collectives = 0;
    s.coll_bytes = 0;
    s.messages = 0;
    s.allocs = 0;
    s.alloc_bytes = 0;
  }
}

}  // namespace exw::perf
