#include "cluster/config.hpp"

#include <charconv>

#include "support/error.hpp"

namespace hetsched::cluster {

int Config::total_procs() const {
  int p = 0;
  for (const auto& u : usage) p += u.pes * u.procs_per_pe;
  return p;
}

int Config::total_pes() const {
  int n = 0;
  for (const auto& u : usage) n += u.pes;
  return n;
}

bool Config::single_pe() const { return total_pes() == 1; }

std::string Config::to_string() const {
  std::string out;
  // A guess that fits typical kind names and search::estimate_key's
  // "@n" suffix in one allocation.
  out.reserve(24 * usage.size());
  const auto append_int = [&out](int v) {
    char buf[16];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  for (const auto& u : usage) {
    if (u.pes == 0) continue;
    if (!out.empty()) out += ' ';
    out += u.kind;
    out += '[';
    append_int(u.pes);
    out += 'x';
    append_int(u.procs_per_pe);
    out += ']';
  }
  if (out.empty()) out = "(empty)";
  return out;
}

Config Config::paper(int p1, int m1, int p2, int m2) {
  Config c;
  if (p1 > 0) c.usage.push_back(KindUsage{athlon_1330().name, p1, m1});
  if (p2 > 0) c.usage.push_back(KindUsage{pentium2_400().name, p2, m2});
  return c;
}

std::vector<int> Placement::per_node_procs(std::size_t node_count) const {
  std::vector<int> counts(node_count, 0);
  for (const auto& pe : rank_pe) {
    HETSCHED_CHECK(pe.node < node_count, "placement references missing node");
    ++counts[pe.node];
  }
  return counts;
}

int Placement::co_resident(int rank) const {
  HETSCHED_CHECK(rank >= 0 && rank < nprocs(), "co_resident: bad rank");
  const PeRef me = rank_pe[static_cast<std::size_t>(rank)];
  int n = 0;
  for (const auto& pe : rank_pe)
    if (pe == me) ++n;
  return n;
}

Placement make_placement(const ClusterSpec& spec, const Config& config) {
  HETSCHED_CHECK(config.total_procs() > 0,
                 "make_placement: configuration runs no processes");
  Placement placement;
  for (const auto& u : config.usage) {
    if (u.pes == 0) continue;
    HETSCHED_CHECK(u.pes > 0 && u.procs_per_pe > 0,
                   "make_placement: counts must be positive");
    const std::vector<PeRef> pes = spec.pes_of_kind(u.kind);
    HETSCHED_CHECK(static_cast<std::size_t>(u.pes) <= pes.size(),
                   "make_placement: not enough PEs of kind " + u.kind);
    // Block-cyclic 1xP grids interleave ranks across PEs within a kind so
    // consecutive column blocks land on different processors; within one
    // PE the ranks are the consecutive "slots".
    for (int s = 0; s < u.procs_per_pe; ++s)
      for (int p = 0; p < u.pes; ++p)
        placement.rank_pe.push_back(pes[static_cast<std::size_t>(p)]);
  }
  return placement;
}

}  // namespace hetsched::cluster
