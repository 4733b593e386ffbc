#include "cluster/config.hpp"

#include <gtest/gtest.h>

#include "cluster/machine.hpp"
#include "support/error.hpp"

namespace hetsched::cluster {
namespace {

TEST(Spec, PaperClusterShape) {
  const ClusterSpec spec = paper_cluster();
  ASSERT_EQ(spec.nodes.size(), 5u);
  EXPECT_EQ(spec.total_pes(), 9);  // 1 Athlon + 4x2 Pentium-II
  EXPECT_EQ(spec.pes_of_kind(athlon_1330().name).size(), 1u);
  EXPECT_EQ(spec.pes_of_kind(pentium2_400().name).size(), 8u);
  const auto kinds = spec.kind_names();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], athlon_1330().name);
  EXPECT_EQ(kinds[1], pentium2_400().name);
}

TEST(Spec, KindLookupThrowsOnUnknown) {
  const ClusterSpec spec = paper_cluster();
  EXPECT_THROW(spec.kind("nonexistent"), Error);
  EXPECT_DOUBLE_EQ(spec.kind(athlon_1330().name).peak_flops,
                   athlon_1330().peak_flops);
}

TEST(Config, PaperQuadruple) {
  const Config c = Config::paper(1, 3, 8, 1);
  EXPECT_EQ(c.total_procs(), 11);
  EXPECT_EQ(c.total_pes(), 9);
  EXPECT_FALSE(c.single_pe());
}

TEST(Config, SinglePeDetection) {
  EXPECT_TRUE(Config::paper(1, 4, 0, 0).single_pe());
  EXPECT_TRUE(Config::paper(0, 0, 1, 2).single_pe());
  EXPECT_FALSE(Config::paper(1, 1, 1, 1).single_pe());
}

TEST(Config, ZeroPeEntriesDropped) {
  const Config c = Config::paper(0, 3, 2, 1);
  ASSERT_EQ(c.usage.size(), 1u);
  EXPECT_EQ(c.usage[0].kind, pentium2_400().name);
}

TEST(Config, ToStringReadable) {
  // The label is part of answers and cache keys: its bytes are pinned.
  EXPECT_EQ(Config::paper(1, 2, 4, 1).to_string(),
            "Athlon-1.33GHz[1x2] PentiumII-400MHz[4x1]");
  Config c;
  c.usage = {KindUsage{"a", 0, 3}, KindUsage{"b", 12, 1},
             KindUsage{"c", 0, 1}, KindUsage{"d", 2, 10}};
  EXPECT_EQ(c.to_string(), "b[12x1] d[2x10]");  // zero-PE entries skipped
  c.usage = {KindUsage{"a", 0, 3}};
  EXPECT_EQ(c.to_string(), "(empty)");
  EXPECT_EQ(Config{}.to_string(), "(empty)");
}

TEST(Placement, CountsMatchConfig) {
  const ClusterSpec spec = paper_cluster();
  const Placement p = make_placement(spec, Config::paper(1, 2, 8, 1));
  EXPECT_EQ(p.nprocs(), 10);
  const auto per_node = p.per_node_procs(spec.nodes.size());
  EXPECT_EQ(per_node[0], 2);  // Athlon node: M1 = 2
  for (std::size_t n = 1; n < 5; ++n) EXPECT_EQ(per_node[n], 2);  // 2 CPUs
}

TEST(Placement, AthlonRanksComeFirst) {
  const ClusterSpec spec = paper_cluster();
  const Placement p = make_placement(spec, Config::paper(1, 3, 2, 1));
  // First usage entry is the Athlon: its 3 ranks precede the Pentiums.
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(p.rank_pe[static_cast<std::size_t>(r)].node, 0u);
  for (int r = 3; r < 5; ++r)
    EXPECT_GT(p.rank_pe[static_cast<std::size_t>(r)].node, 0u);
}

TEST(Placement, CoResidentCounts) {
  const ClusterSpec spec = paper_cluster();
  const Placement p = make_placement(spec, Config::paper(1, 4, 8, 1));
  EXPECT_EQ(p.co_resident(0), 4);   // an Athlon rank shares with 3 others
  EXPECT_EQ(p.co_resident(11), 1);  // a Pentium rank runs alone
}

TEST(Placement, WithinKindRanksInterleaveAcrossPes) {
  // Ranks r and r+pes must land on different processors so block-cyclic
  // panels rotate over PEs.
  const ClusterSpec spec = paper_cluster();
  const Placement p = make_placement(spec, Config::paper(0, 0, 4, 2));
  EXPECT_EQ(p.nprocs(), 8);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(p.rank_pe[static_cast<std::size_t>(r)],
              p.rank_pe[static_cast<std::size_t>(r + 4)]);
  }
  EXPECT_FALSE(p.rank_pe[0] == p.rank_pe[1]);
}

TEST(Placement, TooManyPesThrows) {
  const ClusterSpec spec = paper_cluster();
  EXPECT_THROW(make_placement(spec, Config::paper(2, 1, 0, 0)), Error);
  EXPECT_THROW(make_placement(spec, Config::paper(0, 0, 9, 1)), Error);
}

TEST(Placement, EmptyConfigThrows) {
  const ClusterSpec spec = paper_cluster();
  EXPECT_THROW(make_placement(spec, Config{}), Error);
}

TEST(Machine, DemandConversions) {
  des::Simulator sim;
  const ClusterSpec spec = paper_cluster();
  Machine machine(sim, spec);
  const PeRef athlon{0, 0};
  // Large working set: rate ~ peak -> demand ~ work/peak.
  const double peak = athlon_1330().peak_flops;
  const Seconds d = machine.compute_demand(athlon, peak, kGiB, 500 * kMiB);
  EXPECT_NEAR(d, 1.0, 0.05);
  // Paged node: much slower.
  const Seconds paged =
      machine.compute_demand(athlon, peak, kGiB, 800 * kMiB);
  EXPECT_GT(paged, 20.0);
  // Copy demand uses memory bandwidth.
  const Seconds c = machine.copy_demand(athlon, 600 * kMiB);
  EXPECT_NEAR(c, 1.0, 1e-9);
}

TEST(Machine, CpuLookupValidation) {
  des::Simulator sim;
  Machine machine(sim, paper_cluster());
  EXPECT_NO_THROW(machine.cpu(PeRef{1, 1}));
  EXPECT_THROW(machine.cpu(PeRef{9, 0}), Error);
  EXPECT_THROW(machine.cpu(PeRef{0, 1}), Error);  // Athlon node has 1 CPU
}

}  // namespace
}  // namespace hetsched::cluster
