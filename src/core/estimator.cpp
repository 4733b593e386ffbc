#include "core/estimator.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "support/error.hpp"

namespace hetsched::core {

namespace {

/// "kind/pes/m" (N-T) or "kind/m": the entry listings keep the
/// lexicographic order of this text, which the model fingerprint and
/// the model file depend on (DESIGN.md note 18).
std::string key_text(const std::string& kind,
                     std::initializer_list<int> numbers) {
  std::string text;
  text.reserve(kind.size() + 24);
  text += kind;
  for (const int v : numbers) {
    text += '/';
    text += std::to_string(v);
  }
  return text;
}

/// The map's entries in the order of their key text.
template <typename Key, typename Entry, typename Text>
std::vector<Entry> in_text_order(const std::map<Key, Entry>& map,
                                 Text text) {
  std::vector<std::pair<std::string, const Entry*>> order;
  order.reserve(map.size());
  for (const auto& [k, e] : map) order.emplace_back(text(e), &e);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Entry> out;
  out.reserve(order.size());
  for (const auto& [t, e] : order) out.push_back(*e);
  return out;
}

}  // namespace

const char* to_string(Provenance p) {
  switch (p) {
    case Provenance::kMeasured:
      return "measured";
    case Provenance::kRefined:
      return "refined";
    case Provenance::kComposed:
      return "composed";
    case Provenance::kFallback:
      return "fallback";
    case Provenance::kDrifted:
      return "drifted";
  }
  HETSCHED_ASSERT(false, "to_string: invalid Provenance value");
  return "measured";
}

Provenance provenance_from_string(const std::string& tag) {
  if (tag == "measured") return Provenance::kMeasured;
  if (tag == "refined") return Provenance::kRefined;
  if (tag == "composed") return Provenance::kComposed;
  if (tag == "fallback") return Provenance::kFallback;
  if (tag == "drifted") return Provenance::kDrifted;
  throw Error("unknown provenance tag '" + tag + "'");
}

Estimator::Estimator(cluster::ClusterSpec spec, EstimatorOptions opts)
    : spec_(std::move(spec)), opts_(opts), kinds_(spec_.kind_names()) {
  for (const std::string& kind : kinds_) {
    std::vector<std::uint32_t> nodes;
    for (const cluster::PeRef& pe : spec_.pes_of_kind(kind))
      nodes.push_back(static_cast<std::uint32_t>(pe.node));
    kind_nodes_.push_back(std::move(nodes));
  }
}

std::size_t Estimator::intern_kind(const std::string& kind) {
  const std::size_t k = find_kind(kind);
  if (k != kNoKind) return k;
  kinds_.push_back(kind);
  return kinds_.size() - 1;
}

void Estimator::add_nt(const NtKey& key, NtModel model,
                       Provenance provenance) {
  nt_[Key{intern_kind(key.kind), key.pes, key.m}] =
      NtEntry{key, std::move(model), provenance};
}

void Estimator::add_pt(const std::string& kind, int m, PtModel model,
                       Provenance provenance) {
  pt_[Key{intern_kind(kind), 0, m}] =
      PtEntry{kind, m, std::move(model), provenance};
}

void Estimator::add_adjustment(const std::string& kind, int m, LinearMap map) {
  adjust_[Key{intern_kind(kind), 0, m}] = AdjustEntry{kind, m, map};
}

// hetsched-lint: hot-path-begin — model lookups format no key text and
// allocate nothing.

namespace {

/// The entry under an integer key, or null. An unknown kind (kNoKind)
/// matches no key.
template <typename Map>
const typename Map::mapped_type* find_entry(const Map& map, std::size_t kind,
                                            int pes, int m) {
  const auto it = map.find(typename Map::key_type{kind, pes, m});
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

std::size_t Estimator::find_kind(const std::string& kind) const {
  for (std::size_t k = 0; k < kinds_.size(); ++k)
    if (kinds_[k] == kind) return k;
  return kNoKind;
}

const Estimator::NtEntry* Estimator::find_nt(const std::string& kind, int pes,
                                             int m) const {
  return find_entry(nt_, find_kind(kind), pes, m);
}

const Estimator::PtEntry* Estimator::find_pt(const std::string& kind,
                                             int m) const {
  return find_entry(pt_, find_kind(kind), 0, m);
}

const LinearMap* Estimator::adjustment(const std::string& kind, int m) const {
  const AdjustEntry* e = find_entry(adjust_, find_kind(kind), 0, m);
  return e == nullptr ? nullptr : &e->map;
}

// hetsched-lint: hot-path-end

const NtModel* Estimator::nt(const NtKey& key) const {
  const NtEntry* e = find_nt(key.kind, key.pes, key.m);
  return e == nullptr ? nullptr : &e->model;
}

const PtModel* Estimator::pt(const std::string& kind, int m) const {
  const PtEntry* e = find_pt(kind, m);
  return e == nullptr ? nullptr : &e->model;
}

Provenance Estimator::nt_provenance(const NtKey& key) const {
  const NtEntry* e = find_nt(key.kind, key.pes, key.m);
  return e == nullptr ? Provenance::kMeasured : e->provenance;
}

Provenance Estimator::pt_provenance(const std::string& kind, int m) const {
  const PtEntry* e = find_pt(kind, m);
  return e == nullptr ? Provenance::kMeasured : e->provenance;
}

std::vector<Estimator::NtEntry> Estimator::nt_entries() const {
  return in_text_order(nt_, [](const NtEntry& e) {
    return key_text(e.key.kind, {e.key.pes, e.key.m});
  });
}

std::vector<Estimator::PtEntry> Estimator::pt_entries() const {
  return in_text_order(pt_, [](const PtEntry& e) {
    return key_text(e.kind, {e.m});
  });
}

std::vector<Estimator::AdjustEntry> Estimator::adjust_entries() const {
  return in_text_order(adjust_, [](const AdjustEntry& e) {
    return key_text(e.kind, {e.m});
  });
}

std::string Estimator::describe() const {
  std::ostringstream os;
  os << "estimator over " << spec_.nodes.size() << " nodes, "
     << spec_.total_pes() << " PEs\n";
  os << "  N-T models (" << nt_.size() << "):\n";
  for (const NtEntry& e : nt_entries()) {
    os << "    " << e.key.kind << " pes=" << e.key.pes << " m=" << e.key.m
       << "  k0=" << e.model.compute_coeffs()[0]
       << " tai(4800)=" << e.model.tai(4800)
       << "s tci(4800)=" << e.model.tci(4800) << "s ["
       << to_string(e.provenance) << "]\n";
  }
  os << "  P-T models (" << pt_.size() << "):\n";
  for (const PtEntry& e : pt_entries()) {
    os << "    " << e.kind << " m=" << e.m
       << "  tai(4800,P=10)=" << e.model.tai(4800, 10)
       << "s tci(4800,Q=9)=" << e.model.tci(4800, 9) << "s ["
       << to_string(e.provenance) << "]\n";
  }
  os << "  adjustments (" << adjust_.size() << "):\n";
  for (const AdjustEntry& e : adjust_entries())
    os << "    " << e.kind << " m=" << e.m << "  t ~ " << e.map.a
       << " * tau + " << e.map.b << "\n";
  return os.str();
}

bool Estimator::covers(const cluster::Config& config) const {
  if (config.total_procs() <= 0) return false;
  if (opts_.use_binning && config.usage.size() == 1) {
    const auto& u = config.usage.front();
    if (find_nt(u.kind, u.pes, u.procs_per_pe)) return true;
  }
  // With binning on, a single-PE configuration must use its own N-T model
  // (checked above); with binning off it falls through to the P-T path.
  if (opts_.use_binning && config.single_pe()) return false;
  for (const auto& u : config.usage) {
    if (u.pes == 0) continue;
    if (!find_pt(u.kind, u.procs_per_pe)) return false;
  }
  return true;
}

void Estimator::add_footprint(const cluster::Config& config, int n,
                              Bytes* footprint) const {
  // The memory model of the engines: exact block-cyclic column shares
  // (ColumnShares), so footprints are exact for non-dividing (N, P)
  // pairs — core_estimator_test.PagedFootprint* pins this. Validation
  // mirrors cluster::make_placement and hpl::Grid1xP, in their order.
  HETSCHED_CHECK(config.total_procs() > 0,
                 "make_placement: configuration runs no processes");
  for (const auto& u : config.usage) {
    if (u.pes == 0) continue;
    HETSCHED_CHECK(u.pes > 0 && u.procs_per_pe > 0,
                   "make_placement: counts must be positive");
    const std::size_t k = find_kind(u.kind);
    HETSCHED_CHECK(k < kind_nodes_.size() &&
                       static_cast<std::size_t>(u.pes) <= kind_nodes_[k].size(),
                   "make_placement: not enough PEs of kind " + u.kind);
  }
  HETSCHED_CHECK(opts_.nb >= 1, "Grid1xP: nb >= 1 required");
  const ColumnShares shares(n, opts_.nb, config.total_procs());
  int rank = 0;
  for (const auto& u : config.usage) {
    if (u.pes == 0) continue;
    rank = add_kind_footprint(shares, kind_nodes_[find_kind(u.kind)].data(),
                              u.pes, u.procs_per_pe, rank,
                              spec_.proc_overhead, footprint, nullptr);
  }
}

std::vector<Bytes> Estimator::predicted_footprint(
    const cluster::Config& config, int n) const {
  HETSCHED_CHECK(n >= 1, "predicted_footprint: n >= 1 required");
  std::vector<Bytes> footprint(spec_.nodes.size(), spec_.os_reserved);
  add_footprint(config, n, footprint.data());
  return footprint;
}

bool Estimator::predicted_paged(const cluster::Config& config, int n) const {
  // Per-node accumulators on the stack for clusters of up to kInline
  // nodes; larger clusters take one heap vector per call.
  constexpr std::size_t kInline = 64;
  const std::size_t nodes = spec_.nodes.size();
  std::array<Bytes, kInline> local;
  std::vector<Bytes> heap;
  Bytes* footprint = local.data();
  if (nodes > kInline) {
    heap.resize(nodes);
    footprint = heap.data();
  }
  std::fill(footprint, footprint + nodes, spec_.os_reserved);
  add_footprint(config, n, footprint);
  for (std::size_t node = 0; node < nodes; ++node)
    if (footprint[node] > spec_.nodes[node].memory) return true;
  return false;
}

Seconds Estimator::evaluate(const cluster::Config& config, int n,
                            Breakdown* detail) const {
  HETSCHED_CHECK(n >= 1, "estimate: n >= 1 required");
  HETSCHED_CHECK(config.total_procs() > 0, "estimate: empty configuration");

  const double nn = n;
  const double p = config.total_procs();  // computation: process count
  const double q = opts_.comm_uses_processors
                       ? static_cast<double>(config.total_pes())
                       : p;
  Seconds total = 0;
  Provenance provenance = Provenance::kMeasured;

  // Binning (§3.4): the most specific model wins. A configuration that
  // coincides with a measured homogeneous group keeps its own N-T model
  // (exact bin); single-PE configurations *must* have one (different
  // physics: no inter-PE traffic); everything else goes through P-T.
  //
  // A single-PE configuration with Mi > 1 (one processor, several
  // co-resident processes) is multiprogrammed but still communicates
  // over intra-PE channels only — §3.4's "P = Mi" regime *is* the N-T
  // bin, so it takes the exact path like Mi = 1. The N-T key carries m,
  // so each multiprogramming level keeps its own curve. Pinned by
  // core_estimator_test.SinglePeMultiprogrammed*.
  const NtEntry* exact = nullptr;
  if (opts_.use_binning && config.usage.size() == 1) {
    const auto& u = config.usage.front();
    exact = find_nt(u.kind, u.pes, u.procs_per_pe);
    if (config.single_pe())
      HETSCHED_CHECK(exact != nullptr,
                     "no N-T model for single-PE configuration " +
                         config.to_string());
  }
  if (exact != nullptr) {
    const auto& u = config.usage.front();
    const Seconds tai = exact->model.tai(nn);
    const Seconds tci = exact->model.tci(nn);
    provenance = std::max(provenance, exact->provenance);
    total = std::max(total, tai + tci);
    if (detail != nullptr)
      detail->kinds.push_back(KindEstimate{u.kind, u.procs_per_pe, tai, tci});
  } else {
    for (const auto& u : config.usage) {
      if (u.pes == 0) continue;
      const PtEntry* e = find_pt(u.kind, u.procs_per_pe);
      HETSCHED_CHECK(e != nullptr, "no P-T model for kind " + u.kind +
                                       " at m = " +
                                       std::to_string(u.procs_per_pe));
      provenance = std::max(provenance, e->provenance);
      // Clamp components at zero: a fitted quadratic Tci can cross zero
      // below the measured range (latency-bound workloads), and a
      // negative time component would poison the argmin.
      const Seconds tai = std::max(0.0, e->model.tai(nn, p));
      const Seconds tci = std::max(0.0, e->model.tci(nn, q));
      total = std::max(total, tai + tci);
      if (detail != nullptr)
        detail->kinds.push_back(
            KindEstimate{u.kind, u.procs_per_pe, tai, tci});
    }
  }

  // Per-(kind, m) linear correction — the paper applies it to the mixed
  // configurations of the fast PE's high multiprocessing levels.
  bool adjusted = false;
  if (opts_.use_adjustment && exact == nullptr) {
    for (const auto& u : config.usage) {
      if (const LinearMap* a = adjustment(u.kind, u.procs_per_pe)) {
        total = std::max(0.0, a->apply(total));
        adjusted = true;
        break;
      }
    }
  }

  const bool paged = opts_.check_memory && predicted_paged(config, n);
  if (paged) total *= opts_.paged_penalty;
  if (detail != nullptr) {
    detail->single_pe_bin = exact != nullptr;
    detail->paged = paged;
    detail->adjusted = adjusted;
    detail->provenance = provenance;
    detail->total = total;
  }
  return total;
}

Estimator::Breakdown Estimator::breakdown(const cluster::Config& config,
                                          int n) const {
  Breakdown bd;
  evaluate(config, n, &bd);
  return bd;
}

Seconds Estimator::estimate(const cluster::Config& config, int n) const {
  return evaluate(config, n, nullptr);
}

}  // namespace hetsched::core
