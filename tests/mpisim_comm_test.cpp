#include "mpisim/comm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/machine.hpp"
#include "des/sim.hpp"
#include "support/error.hpp"

namespace hetsched::mpisim {
namespace {

struct Fixture {
  des::Simulator sim;
  cluster::ClusterSpec spec = cluster::paper_cluster();
  cluster::Machine machine{sim, spec};
};

cluster::Placement two_ranks_two_nodes() {
  cluster::Placement p;
  p.rank_pe = {cluster::PeRef{0, 0}, cluster::PeRef{1, 0}};
  return p;
}

cluster::Placement two_ranks_one_cpu() {
  cluster::Placement p;
  p.rank_pe = {cluster::PeRef{0, 0}, cluster::PeRef{0, 0}};
  return p;
}

des::Task sender(Comm& comm, int dst, int tag, Bytes bytes,
                 std::vector<double> payload, double& done_at) {
  co_await comm.send(0, dst, tag, bytes, std::move(payload));
  done_at = comm.machine().sim().now();
}

des::Task receiver(Comm& comm, int me, int src, int tag, Message& out,
                   double& recv_at) {
  out = co_await comm.recv(me, src, tag);
  recv_at = comm.machine().sim().now();
}

TEST(Comm, MessageDeliveredWithPayload) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  Message got;
  double sent_at = -1, recv_at = -1;
  f.sim.spawn(sender(comm, 1, 7, 24.0, {1.0, 2.0, 3.0}, sent_at));
  f.sim.spawn(receiver(comm, 1, 0, 7, got, recv_at));
  f.sim.run();
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.tag, 7);
  EXPECT_EQ(got.payload, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_GT(recv_at, 0.0);
  EXPECT_GT(recv_at, sent_at);  // delivery after sender-side completion
}

TEST(Comm, InterNodeTimingMatchesNetworkModel) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  const Bytes bytes = 1.25e6;
  const Seconds ser = bytes / f.spec.fabric.link_bandwidth;
  Message got;
  double sent_at = -1, recv_at = -1;
  f.sim.spawn(sender(comm, 1, 0, bytes, {}, sent_at));
  f.sim.spawn(receiver(comm, 1, 0, 0, got, recv_at));
  f.sim.run();
  EXPECT_NEAR(sent_at, ser, 1e-6);
  // Cut-through fabric: one serialization + link latency + stack latency.
  EXPECT_NEAR(recv_at,
              ser + f.spec.fabric.link_latency + f.spec.mpi.software_latency,
              1e-4);
}

TEST(Comm, IntraNodeFasterThanInterNode) {
  const Bytes bytes = 10 * kMiB;
  double intra_recv = -1, inter_recv = -1;
  {
    Fixture f;
    Comm comm(f.machine, two_ranks_one_cpu());
    Message got;
    double s = -1;
    f.sim.spawn(sender(comm, 1, 0, bytes, {}, s));
    f.sim.spawn(receiver(comm, 1, 0, 0, got, intra_recv));
    f.sim.run();
  }
  {
    Fixture f;
    Comm comm(f.machine, two_ranks_two_nodes());
    Message got;
    double s = -1;
    f.sim.spawn(sender(comm, 1, 0, bytes, {}, s));
    f.sim.spawn(receiver(comm, 1, 0, 0, got, inter_recv));
    f.sim.run();
  }
  EXPECT_LT(intra_recv * 10.0, inter_recv);
}

TEST(Comm, Mpich121LoopbackSlowerThan122) {
  const Bytes bytes = 10 * kMiB;
  auto measure = [&](cluster::MpiProfile profile) {
    des::Simulator sim;
    cluster::ClusterSpec spec = cluster::paper_cluster(profile);
    cluster::Machine machine(sim, spec);
    Comm comm(machine, two_ranks_one_cpu());
    Message got;
    double s = -1, r = -1;
    sim.spawn(sender(comm, 1, 0, bytes, {}, s));
    sim.spawn(receiver(comm, 1, 0, 0, got, r));
    sim.run();
    return r;
  };
  EXPECT_GT(measure(cluster::mpich_121()), 4.0 * measure(cluster::mpich_122()));
}

TEST(Comm, RecvBeforeSendBlocksUntilDelivery) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  Message got;
  double recv_at = -1, sent_at = -1;
  f.sim.spawn(receiver(comm, 1, 0, 3, got, recv_at));
  // Sender starts late.
  auto late_sender = [](Comm& c, double& done) -> des::Task {
    co_await c.machine().sim().delay(5.0);
    co_await c.send(0, 1, 3, 100.0);
    done = c.machine().sim().now();
  };
  f.sim.spawn(late_sender(comm, sent_at));
  f.sim.run();
  EXPECT_GT(recv_at, 5.0);
}

TEST(Comm, TagsDoNotCrossMatch) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  Message m1, m2;
  double t1 = -1, t2 = -1;
  // Send tag 1 then tag 2; receive tag 2 first — matching must be by tag.
  auto snd = [](Comm& c) -> des::Task {
    // Vectors built before the co_await: initializer-list backing arrays
    // cannot live across a suspension point (GCC coroutine limitation).
    std::vector<double> one(1, 1.0);
    std::vector<double> two(1, 2.0);
    co_await c.send(0, 1, 1, 10.0, std::move(one));
    co_await c.send(0, 1, 2, 10.0, std::move(two));
  };
  auto rcv = [](Comm& c, Message& a, Message& b, double& ta,
                double& tb) -> des::Task {
    a = co_await c.recv(1, 0, 2);
    ta = c.machine().sim().now();
    b = co_await c.recv(1, 0, 1);
    tb = c.machine().sim().now();
  };
  f.sim.spawn(snd(comm));
  f.sim.spawn(rcv(comm, m1, m2, t1, t2));
  f.sim.run();
  EXPECT_EQ(m1.payload, std::vector<double>{2.0});
  EXPECT_EQ(m2.payload, std::vector<double>{1.0});
  EXPECT_GE(t2, t1);
}

TEST(Comm, SameSourceSameTagFifoOrder) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  std::vector<double> order;
  auto snd = [](Comm& c) -> des::Task {
    for (int i = 0; i < 5; ++i) {
      std::vector<double> v(1, static_cast<double>(i));
      co_await c.send(0, 1, 0, 10.0, std::move(v));
    }
  };
  auto rcv = [](Comm& c, std::vector<double>& got) -> des::Task {
    for (int i = 0; i < 5; ++i) {
      Message m = co_await c.recv(1, 0, 0);
      got.push_back(m.payload.at(0));
    }
  };
  f.sim.spawn(snd(comm));
  f.sim.spawn(rcv(comm, order));
  f.sim.run();
  EXPECT_EQ(order, (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(Comm, ReceivedMailboxesAreReleased) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  constexpr int kTags = 200;
  std::size_t live_before_recv = 0;
  auto snd = [](Comm& c) -> des::Task {
    for (int tag = 0; tag < kTags; ++tag) co_await c.send(0, 1, tag, 10.0);
  };
  // Receive long after every delivery, newest tag first, so each
  // message sits in its own mailbox until its receive drains it.
  auto rcv = [](Comm& c, std::size_t& live) -> des::Task {
    co_await c.machine().sim().delay(1000.0);
    live = c.live_mailboxes();
    for (int tag = kTags - 1; tag >= 0; --tag) {
      Message m = co_await c.recv(1, 0, tag);
      EXPECT_EQ(m.tag, tag);
    }
  };
  f.sim.spawn(snd(comm));
  f.sim.spawn(rcv(comm, live_before_recv));
  f.sim.run();
  EXPECT_EQ(live_before_recv, static_cast<std::size_t>(kTags));
  EXPECT_EQ(comm.live_mailboxes(), 0u);
  EXPECT_EQ(comm.stats(1).recvs, static_cast<std::uint64_t>(kTags));
}

TEST(Comm, DeliveryAfterReleaseStillMatchesInFifoOrder) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  std::vector<double> order;
  std::size_t live_after_first = 1;
  auto snd = [](Comm& c) -> des::Task {
    for (int i = 0; i < 3; ++i) {
      std::vector<double> v(1, static_cast<double>(i));
      co_await c.send(0, 1, 5, 10.0, std::move(v));
    }
  };
  // All three are sent before the first arrives. Receiving it releases
  // (1, 0, 5) while the other two are still in flight; they land in a
  // fresh mailbox with no receiver posted, long before they are asked
  // for.
  auto rcv = [](Comm& c, std::vector<double>& got,
                std::size_t& live) -> des::Task {
    Message m = co_await c.recv(1, 0, 5);
    got.push_back(m.payload.at(0));
    live = c.live_mailboxes();
    co_await c.machine().sim().delay(100.0);
    for (int i = 0; i < 2; ++i) {
      m = co_await c.recv(1, 0, 5);
      got.push_back(m.payload.at(0));
    }
  };
  f.sim.spawn(snd(comm));
  f.sim.spawn(rcv(comm, order, live_after_first));
  f.sim.run();
  EXPECT_EQ(live_after_first, 0u);
  EXPECT_EQ(order, (std::vector<double>{0, 1, 2}));
  EXPECT_EQ(comm.live_mailboxes(), 0u);
}

TEST(Comm, StatsAccounting) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  Message got;
  double s = -1, r = -1;
  f.sim.spawn(sender(comm, 1, 0, 123.0, {}, s));
  f.sim.spawn(receiver(comm, 1, 0, 0, got, r));
  f.sim.run();
  EXPECT_EQ(comm.stats(0).sends, 1u);
  EXPECT_DOUBLE_EQ(comm.stats(0).bytes_sent, 123.0);
  EXPECT_EQ(comm.stats(1).recvs, 1u);
}

TEST(Comm, SelfSendRejected) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  EXPECT_THROW(comm.send(0, 0, 0, 10.0), Error);
}

TEST(Comm, BadRankRejected) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  EXPECT_THROW(comm.send(0, 5, 0, 10.0), Error);
  EXPECT_THROW(comm.stats(-1), Error);
}

TEST(Comm, UnmatchedRecvIsDeadlock) {
  Fixture f;
  Comm comm(f.machine, two_ranks_two_nodes());
  Message got;
  double r = -1;
  f.sim.spawn(receiver(comm, 1, 0, 99, got, r));
  EXPECT_THROW(f.sim.run(), Error);
}

}  // namespace
}  // namespace hetsched::mpisim
