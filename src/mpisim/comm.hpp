// Message-passing layer over the simulated cluster.
//
// `Comm` plays the role MPICH plays in the paper: tagged point-to-point
// messages between ranks, with timing determined by the Network model
// (sender NIC serialization, switch hop, receiver NIC, intra-node channel
// for co-located ranks). Send semantics are buffered-blocking: the sender
// is suspended while its bytes serialize onto the wire (or the intra-node
// channel) and resumes when the local buffer is free; delivery happens
// later and matches a posted or future recv by (source, tag).
//
// Each (destination, source, tag) has a FIFO mailbox that lives only
// while it holds a message or a waiting receiver: a receive that leaves
// it empty releases it, and a delivery looks it up (or creates it) when
// it arrives. HPL draws a fresh tag per panel, so mailboxes kept for the
// whole run would pile up by the thousand.
//
// Payloads are optional: the HPL cost engine sends sizes only, while the
// numeric engine ships real matrix panels through the same code path.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/machine.hpp"
#include "des/sim.hpp"
#include "des/sync.hpp"
#include "des/task.hpp"
#include "des/value_task.hpp"
#include "support/units.hpp"

namespace hetsched::mpisim {

/// A delivered message.
struct Message {
  int src = -1;
  int tag = 0;
  Bytes bytes = 0;
  std::vector<double> payload;  ///< empty in cost-only simulations
};

/// Communication statistics for one rank.
struct CommStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  Bytes bytes_sent = 0;
};

class Comm {
 public:
  /// Binds `placement.nprocs()` ranks to processors of `machine`.
  Comm(cluster::Machine& machine, cluster::Placement placement);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int size() const { return placement_.nprocs(); }
  cluster::Machine& machine() { return machine_; }
  const cluster::Placement& placement() const { return placement_; }

  /// Processor a rank runs on.
  cluster::PeRef pe_of(int rank) const;

  /// Sends `bytes` (with optional payload) from `src` to `dst`. Arguments
  /// are validated eagerly (throws before any simulated time passes); the
  /// returned task completes when the sender's buffer is free.
  des::Task send(int src, int dst, int tag, Bytes bytes,
                 std::vector<double> payload = {});

  /// Receives the next message from `src` with `tag` at rank `dst`.
  /// Arguments validated eagerly.
  des::ValueTask<Message> recv(int dst, int src, int tag);

  const CommStats& stats(int rank) const;

  /// Mailboxes currently holding a message or a waiting receiver,
  /// summed over all ranks (zero once every message was received).
  std::size_t live_mailboxes() const;

 private:
  using MatchKey = std::uint64_t;  // (src << 32) | tag
  static MatchKey key(int src, int tag);

  des::Task send_impl(int src, int dst, int tag, Bytes bytes,
                      std::vector<double> payload);
  des::ValueTask<Message> recv_impl(int dst, int src, int tag);

  des::Queue<Message>& mailbox(int dst, MatchKey k);
  void validate_rank(int rank) const;

  cluster::Machine& machine_;
  cluster::Placement placement_;
  // mailboxes_[dst][key(src, tag)]
  std::vector<std::map<MatchKey, des::Queue<Message>>> mailboxes_;
  std::vector<CommStats> stats_;
};

}  // namespace hetsched::mpisim
