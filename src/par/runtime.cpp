#include "par/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "perf/purity.hpp"

namespace exw::par {

Transport::Transport(perf::Tracer* tracer, int nranks,
                     comm_audit::Auditor* audit)
    : tracer_(tracer),
      audit_(audit),
      shards_(static_cast<std::size_t>(nranks > 0 ? nranks : 1)),
      nranks_(nranks > 0 ? nranks : 1) {
  for (Shard& sh : shards_) {
    sh.first.assign(static_cast<std::size_t>(nranks_), -1);
  }
}

const Transport::Channel* Transport::find(const Shard& sh, RankId src,
                                          int tag) {
  int c = sh.first[static_cast<std::size_t>(src)];
  while (c >= 0) {
    const Channel& ch = sh.channels[static_cast<std::size_t>(c)];
    if (ch.tag == tag) return &ch;
    c = ch.next;
  }
  return nullptr;
}

Transport::Channel* Transport::find(Shard& sh, RankId src, int tag) {
  return const_cast<Channel*>(find(std::as_const(sh), src, tag));
}

void Transport::post(RankId src, RankId dst, int tag,
                     std::span<const std::byte> bytes, const void* type) {
  Shard& sh = shards_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lk(sh.mutex);
  Channel* ch = find(sh, src, tag);
  // Channels, ring slots and buffer capacity stand in for the NIC/MPI
  // library's internal buffers. They are created on a channel's first
  // use and grow only past its previous high-water mark, so purity
  // regions tolerate exactly that and nothing else.
  if (ch == nullptr) {
    EXW_PURITY_ALLOW("simulated-NIC channel creation");
    int& first = sh.first[static_cast<std::size_t>(src)];
    sh.channels.push_back(  // exw-warm-ok: once per channel (allowlisted)
        Channel{tag, first, {}, 0, 0});
    first = checked_narrow<int>(sh.channels.size() - 1);
    ch = &sh.channels.back();
  }
  if (ch->count == ch->ring.size()) {
    // Full ring: open a slot at the tail (just before the oldest
    // message), keeping FIFO order.
    EXW_PURITY_ALLOW("simulated-NIC buffer growth");
    ch->ring.insert(  // exw-warm-ok: past high-water mark only (allowlisted)
        ch->ring.begin() + static_cast<std::ptrdiff_t>(ch->head), Slot{});
    if (ch->count > 0) ++ch->head;
  }
  Slot& slot = ch->ring[(ch->head + ch->count) % ch->ring.size()];
  if (slot.buf.size() < bytes.size()) {
    EXW_PURITY_ALLOW("simulated-NIC buffer growth");
    slot.buf.resize(  // exw-warm-ok: past high-water mark only (allowlisted)
        bytes.size());
  }
  if (!bytes.empty()) {
    std::memcpy(slot.buf.data(), bytes.data(), bytes.size());
  }
  slot.size = bytes.size();
  slot.type = type;
  ++ch->count;
}

Transport::Delivery Transport::take(RankId dst, RankId src, int tag,
                                    std::span<std::byte> out,
                                    const void* type, bool keep_buffer) {
  Shard& sh = shards_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lk(sh.mutex);
  Channel* ch = find(sh, src, tag);
  EXW_REQUIRE(ch != nullptr && ch->count > 0, "recv with no matching message");
  Slot& slot = ch->ring[ch->head];
  const Delivery d{slot.size, slot.type == type && slot.size == out.size()};
  if (d.matched && d.bytes > 0) {
    std::memcpy(out.data(), slot.buf.data(), d.bytes);
  }
  if (!keep_buffer) {
    std::vector<std::byte>().swap(slot.buf);
  }
  ch->head = (ch->head + 1) % ch->ring.size();
  --ch->count;
  return d;
}

std::size_t Transport::pending_bytes(RankId dst, RankId src, int tag) const {
  require_rank(dst, "recv dst");
  require_rank(src, "recv src");
  const Shard& sh = shards_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lk(sh.mutex);
  const Channel* ch = find(sh, src, tag);
  EXW_REQUIRE(ch != nullptr && ch->count > 0, "recv with no matching message");
  return ch->ring[ch->head].size;
}

bool Transport::has_message(RankId dst, RankId src, int tag) const {
  require_rank(dst, "has_message dst");
  require_rank(src, "has_message src");
  const Shard& sh = shards_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lk(sh.mutex);
  const Channel* ch = find(sh, src, tag);
  return ch != nullptr && ch->count > 0;
}

bool Transport::drained() const {
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mutex);
    for (const Channel& ch : sh.channels) {
      if (ch.count > 0) return false;
    }
  }
  return true;
}

Runtime::Runtime(int nranks)
    : tracer_(nranks),
#if EXW_COMM_AUDIT_ENABLED
      audit_(std::make_unique<comm_audit::Auditor>(nranks)),
      transport_(&tracer_, nranks, audit_.get()),
#else
      transport_(&tracer_, nranks),
#endif
      nranks_(nranks) {
  EXW_REQUIRE(nranks >= 1, "runtime needs at least one rank");
#if EXW_COMM_AUDIT_ENABLED
  tracer_.set_phase_pop_listener(audit_.get());
#endif
}

Runtime::~Runtime() {
#if EXW_COMM_AUDIT_ENABLED
  // Unhook before the audit so a listener callback can never reach a
  // half-destroyed auditor, then run the never-throwing teardown scan
  // (problems go to stderr and the comm_audit::report() counters).
  tracer_.set_phase_pop_listener(nullptr);
  audit_->teardown_check();
#endif
}

void Runtime::comm_audit_verify() {
#if EXW_COMM_AUDIT_ENABLED
  audit_->final_check("comm_audit_verify");
#endif
}

comm_audit::Auditor* Runtime::comm_auditor() {
#if EXW_COMM_AUDIT_ENABLED
  return audit_.get();
#else
  return nullptr;
#endif
}

double Runtime::allreduce_sum(
    const std::vector<double>& per_rank_values EXW_COMM_SITE_DEF) {
  EXW_REQUIRE(checked_narrow<int>(per_rank_values.size()) == nranks_,
              "allreduce needs one value per rank");
  tracer_.collective(sizeof(double));
  EXW_COMM_AUDIT_RECORD(
      audit_->on_collective(comm_audit::OpKind::kAllreduceSum, 1, exw_site));
  double sum = 0;
  for (double v : per_rank_values) {
    sum += v;
  }
  return sum;
}

std::vector<double> Runtime::allreduce_sum_vec(
    const std::vector<std::vector<double>>& per_rank_values
        EXW_COMM_SITE_DEF) {
  EXW_REQUIRE(checked_narrow<int>(per_rank_values.size()) == nranks_,
              "allreduce needs one vector per rank");
  const std::size_t n = per_rank_values.front().size();
  tracer_.collective(static_cast<double>(n * sizeof(double)));
  EXW_COMM_AUDIT_RECORD(audit_->on_collective(
      comm_audit::OpKind::kAllreduceSumVec, n, exw_site));
  // Collective result staging — the MPI library's reduction buffer in a
  // real run, not application warm-path state.
  EXW_PURITY_ALLOW("collective payload staging");
  std::vector<double> sum(n, 0.0);
  for (const auto& v : per_rank_values) {
    EXW_REQUIRE(v.size() == n, "allreduce vector length mismatch");
    for (std::size_t i = 0; i < n; ++i) {
      sum[i] += v[i];
    }
  }
  return sum;
}

GlobalIndex Runtime::allreduce_sum(
    const std::vector<GlobalIndex>& per_rank_values EXW_COMM_SITE_DEF) {
  EXW_REQUIRE(checked_narrow<int>(per_rank_values.size()) == nranks_,
              "allreduce needs one value per rank");
  tracer_.collective(sizeof(GlobalIndex));
  EXW_COMM_AUDIT_RECORD(
      audit_->on_collective(comm_audit::OpKind::kAllreduceSum, 1, exw_site));
  GlobalIndex sum{0};
  for (GlobalIndex v : per_rank_values) {
    sum += v;
  }
  return sum;
}

GlobalIndex Runtime::allreduce_max(
    const std::vector<GlobalIndex>& per_rank_values EXW_COMM_SITE_DEF) {
  EXW_REQUIRE(checked_narrow<int>(per_rank_values.size()) == nranks_,
              "allreduce needs one value per rank");
  tracer_.collective(sizeof(GlobalIndex));
  EXW_COMM_AUDIT_RECORD(
      audit_->on_collective(comm_audit::OpKind::kAllreduceMax, 1, exw_site));
  // Seed from the first element, not 0: a zero seed silently clamps the
  // result for all-negative inputs.
  GlobalIndex m = per_rank_values.front();
  for (GlobalIndex v : per_rank_values) {
    m = std::max(m, v);
  }
  return m;
}

}  // namespace exw::par
