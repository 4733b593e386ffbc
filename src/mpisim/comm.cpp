#include "mpisim/comm.hpp"

#include "obs/hooks.hpp"
#include "support/error.hpp"

namespace hetsched::mpisim {

Comm::Comm(cluster::Machine& machine, cluster::Placement placement)
    : machine_(machine), placement_(std::move(placement)) {
  HETSCHED_CHECK(placement_.nprocs() >= 1, "Comm requires at least one rank");
  const std::size_t n = static_cast<std::size_t>(placement_.nprocs());
  mailboxes_.resize(n);
  stats_.resize(n);
  for (const auto& pe : placement_.rank_pe)
    HETSCHED_CHECK(pe.node < machine_.spec().nodes.size(),
                   "placement references a node outside the cluster");
}

cluster::PeRef Comm::pe_of(int rank) const {
  validate_rank(rank);
  return placement_.rank_pe[static_cast<std::size_t>(rank)];
}

Comm::MatchKey Comm::key(int src, int tag) {
  HETSCHED_CHECK(src >= 0 && tag >= 0, "key: negative src or tag");
  return (static_cast<MatchKey>(src) << 32) | static_cast<std::uint32_t>(tag);
}

des::Queue<Message>& Comm::mailbox(int dst, MatchKey k) {
  return mailboxes_[static_cast<std::size_t>(dst)]
      .try_emplace(k, machine_.sim())
      .first->second;
}

void Comm::validate_rank(int rank) const {
  HETSCHED_CHECK(rank >= 0 && rank < size(), "rank out of range");
}

des::Task Comm::send(int src, int dst, int tag, Bytes bytes,
                     std::vector<double> payload) {
  // Validate here, not in the coroutine body: coroutines start lazily and
  // a misuse should surface at the call site immediately.
  validate_rank(src);
  validate_rank(dst);
  HETSCHED_CHECK(bytes >= 0.0, "send: negative size");
  HETSCHED_CHECK(src != dst, "send: a rank cannot message itself");
  return send_impl(src, dst, tag, bytes, std::move(payload));
}

des::Task Comm::send_impl(int src, int dst, int tag, Bytes bytes,
                          std::vector<double> payload) {
  auto& sim = machine_.sim();
  auto& st = stats_[static_cast<std::size_t>(src)];
  ++st.sends;
  st.bytes_sent += bytes;
  HETSCHED_COUNTER_ADD("mpisim.sends", 1);
  HETSCHED_COUNTER_ADD("mpisim.bytes_sent", bytes);
  HETSCHED_HISTOGRAM_RECORD("mpisim.msg_bytes", bytes);

  const cluster::TransferTimes times = machine_.network().plan_transfer(
      sim.now(), pe_of(src).node, pe_of(dst).node, bytes);

  // The mailbox is resolved on delivery: a receive may release the
  // current one before this message arrives.
  const MatchKey k = key(src, tag);
  Message msg{src, tag, bytes, std::move(payload)};
  sim.schedule_at(times.delivered,
                  [this, dst, k, m = std::move(msg)]() mutable {
                    mailbox(dst, k).push(std::move(m));
                  });

  co_await sim.delay(times.sender_done - sim.now());
}

des::ValueTask<Message> Comm::recv(int dst, int src, int tag) {
  validate_rank(src);
  validate_rank(dst);
  return recv_impl(dst, src, tag);
}

des::ValueTask<Message> Comm::recv_impl(int dst, int src, int tag) {
  const MatchKey k = key(src, tag);
  des::Queue<Message>& box = mailbox(dst, k);
  Message m = co_await box.pop();
  if (box.idle()) mailboxes_[static_cast<std::size_t>(dst)].erase(k);
  ++stats_[static_cast<std::size_t>(dst)].recvs;
  HETSCHED_COUNTER_ADD("mpisim.recvs", 1);
  co_return m;
}

std::size_t Comm::live_mailboxes() const {
  std::size_t live = 0;
  for (const auto& boxes : mailboxes_) live += boxes.size();
  return live;
}

const CommStats& Comm::stats(int rank) const {
  validate_rank(rank);
  return stats_[static_cast<std::size_t>(rank)];
}

}  // namespace hetsched::mpisim
