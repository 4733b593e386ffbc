#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "core/model_builder.hpp"
#include "measure/runner.hpp"
#include "search/cache.hpp"
#include "server/protocol.hpp"

namespace perfbench {

namespace {

/// Noise salt of the "production" runs refit-churn's writer reports: a
/// measurement campaign independent of the one the model was fitted on.
constexpr std::uint64_t kProductionSalt = 2;

cluster::PeKind pentium3(const char* name, double peak_flops,
                         Bytes ramp_halfway) {
  cluster::PeKind k = cluster::pentium2_400();
  k.name = name;
  k.peak_flops = peak_flops;
  k.ramp_halfway = ramp_halfway;
  return k;
}

/// The paper's Athlon plus Pentium-II-400 and two Pentium-III variants:
/// one single-CPU Athlon node and four dual nodes of each other kind,
/// 25 PEs.
cluster::ClusterSpec four_kind_spec() {
  cluster::ClusterSpec spec;
  spec.nodes.push_back(
      cluster::NodeSpec{cluster::athlon_1330(), 1, 768 * kMiB});
  for (const cluster::PeKind& kind :
       {cluster::pentium2_400(),
        pentium3("PentiumIII-550MHz", 0.42e9, 6 * kMiB),
        pentium3("PentiumIII-800MHz", 0.6e9, 8 * kMiB)})
    for (int i = 0; i < 4; ++i)
      spec.nodes.push_back(cluster::NodeSpec{kind, 2, 768 * kMiB});
  return spec;
}

/// 156 homogeneous runs: Athlon 1xM and each dual kind {1,2,4,8}xM at
/// M = 1..3, at four sizes.
measure::MeasurementPlan four_kind_plan(const cluster::ClusterSpec& spec) {
  measure::MeasurementPlan plan;
  plan.name = "4kind";
  plan.ns = {1600, 3200, 4800, 6400};
  for (const std::string& kind : spec.kind_names()) {
    if (kind == cluster::athlon_1330().name)
      plan.sweeps.push_back(measure::KindSweep{kind, {1}, {1, 2, 3}});
    else
      plan.sweeps.push_back(measure::KindSweep{kind, {1, 2, 4, 8}, {1, 2, 3}});
  }
  return plan;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "paper-hot") return Workload::kPaperHot;
  if (name == "large-cold") return Workload::kLargeCold;
  if (name == "refit-churn") return Workload::kRefitChurn;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperHot: return "paper-hot";
    case Workload::kLargeCold: return "large-cold";
    case Workload::kRefitChurn: return "refit-churn";
  }
  return "?";
}


ServedModel served_model(Workload w) {
  if (w == Workload::kLargeCold) {
    cluster::ClusterSpec spec = four_kind_spec();
    measure::MeasurementPlan plan = four_kind_plan(spec);
    core::ConfigSpace space = core::ConfigSpace::for_cluster(spec, 3);
    return ServedModel{std::move(spec), std::move(plan), std::move(space), {}};
  }
  return ServedModel{cluster::paper_cluster(cluster::mpich_122()),
                     w == Workload::kPaperHot ? measure::basic_plan()
                                              : measure::ns_plan(),
                     core::ConfigSpace::paper_eval(), hot_sizes()};
}

std::shared_ptr<const server::ModelSnapshot> build_snapshot(
    const ServedModel& model) {
  measure::Runner runner(model.spec);
  core::Estimator est =
      core::ModelBuilder(model.spec).build(runner.run_plan(model.plan));
  auto snap =
      std::make_shared<const server::ModelSnapshot>(std::move(est), model.space);
  for (const int n : model.prewarm) snap->batch_for(n);
  return snap;
}

std::vector<int> hot_sizes() {
  std::vector<int> sizes;
  for (int n = 400; n <= 6400; n += 400) sizes.push_back(n);
  return sizes;
}

std::string config_json(const cluster::Config& config) {
  std::string out = "[";
  bool first = true;
  for (const auto& u : config.usage) {
    if (u.pes == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    out += server::json_quote(u.kind);
    out += ',';
    out += std::to_string(u.pes);
    out += ',';
    out += std::to_string(u.procs_per_pe);
    out += ']';
  }
  return out + "]";
}

std::string estimate_body(const cluster::Config& config, int n) {
  return "\"op\":\"estimate\",\"n\":" + std::to_string(n) +
         ",\"config\":" + config_json(config) + "}";
}

std::string advise_body(int n, int top, const std::vector<std::string>& exclude,
                        int max_total_procs) {
  std::string out = "\"op\":\"advise\",\"n\":" + std::to_string(n) +
                    ",\"top\":" + std::to_string(top);
  if (!exclude.empty() || max_total_procs > 0) {
    out += ",\"constraints\":{";
    if (!exclude.empty()) {
      out += "\"exclude\":[";
      for (std::size_t i = 0; i < exclude.size(); ++i) {
        if (i) out += ',';
        out += server::json_quote(exclude[i]);
      }
      out += ']';
    }
    if (max_total_procs > 0) {
      if (!exclude.empty()) out += ',';
      out += "\"max_total_procs\":" + std::to_string(max_total_procs);
    }
    out += '}';
  }
  return out + "}";
}

std::string observe_body(const cluster::Config& config, int n,
                         double measured) {
  return "\"op\":\"observe\",\"n\":" + std::to_string(n) +
         ",\"config\":" + config_json(config) +
         ",\"measured\":" + server::json_number(measured) + "}";
}

std::string op_body(const std::string& op) {
  return "\"op\":" + server::json_quote(op) + "}";
}

std::string with_id(std::uint64_t id, const std::string& body) {
  return "{\"hsp\":1,\"id\":" + std::to_string(id) + "," + body;
}

ReadMix::ReadMix(const core::ConfigSpace& space, std::uint64_t seed) {
  const std::vector<int> sizes = hot_sizes();
  const std::vector<cluster::Config> configs = space.all();
  estimates_per_size_ = configs.size();
  std::vector<std::vector<std::string>> exclusions = {{}};
  for (std::size_t k = 0; k < 2 && k < space.kinds().size(); ++k)
    exclusions.push_back({space.kinds()[k].kind});
  for (const int n : sizes) {
    advise_at_.push_back(templates_.size());
    for (int top = 1; top <= 3; ++top)
      for (const auto& ex : exclusions) {
        ReadTemplate t;
        t.advise = true;
        t.n = n;
        t.top = top;
        t.exclude = ex;
        t.body = advise_body(n, top, ex, 0);
        templates_.push_back(std::move(t));
      }
    estimate_at_.push_back(templates_.size());
    for (const auto& config : configs) {
      ReadTemplate t;
      t.n = n;
      t.config = config;
      t.body = estimate_body(config, n);
      templates_.push_back(std::move(t));
    }
  }
  // Zipf weights 1/rank over a seeded permutation of the sizes.
  std::vector<std::size_t> rank(sizes.size());
  for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  Rng rng(stream_seed(seed, 100));
  for (std::size_t i = rank.size(); i > 1; --i)
    std::swap(rank[i - 1], rank[rng.uniform_index(i)]);
  double total = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    total += 1.0 / static_cast<double>(rank[i] + 1);
    size_cdf_.push_back(total);
  }
  for (double& c : size_cdf_) c /= total;
}

std::size_t ReadMix::draw_size(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(size_cdf_.begin(), size_cdf_.end(), u);
  return std::min<std::size_t>(it - size_cdf_.begin(), size_cdf_.size() - 1);
}

std::size_t ReadMix::next(Rng& rng) const {
  const std::size_t s = draw_size(rng);
  if (rng.uniform() < 0.5) {
    const std::size_t top = rng.uniform_index(3);
    // Three in four advises are unconstrained; the rest exclude a kind.
    const double u = rng.uniform();
    const std::size_t ex = u < 0.75 ? 0 : (u < 0.875 ? 1 : 2);
    return advise_at_[s] + top * 3 + ex;
  }
  return estimate_at_[s] + rng.uniform_index(estimates_per_size_);
}

std::size_t ReadMix::next_estimate(Rng& rng) const {
  const std::size_t s = draw_size(rng);
  return estimate_at_[s] + rng.uniform_index(estimates_per_size_);
}

ColdAdvise next_cold_advise(Rng& rng, const core::ConfigSpace& space) {
  ColdAdvise a;
  a.n = 1600 + static_cast<int>(rng.uniform_index(14401));
  a.top = 1 + static_cast<int>(rng.uniform_index(3));
  a.max_total_procs = 4 + static_cast<int>(rng.uniform_index(22));
  for (const auto& k : space.kinds())
    if (a.exclude.size() < 2 && rng.uniform() < 0.25)
      a.exclude.push_back(k.kind);
  return a;
}

std::vector<cluster::Config> homogeneous_configs(const core::ConfigSpace& space) {
  std::vector<cluster::Config> configs;
  for (const auto& config : space.all())
    if (config.usage.size() == 1) configs.push_back(config);
  return configs;
}

std::vector<int> writer_sizes() {
  std::vector<int> sizes;
  for (int n = 2000; n <= 8000; n += 500) sizes.push_back(n);
  return sizes;
}

std::vector<WriteOp> writer_sequence(const std::vector<cluster::Config>& configs,
                                     int rounds, int observes,
                                     std::uint64_t seed) {
  const std::vector<int> sizes = writer_sizes();
  Rng rng(seed);
  std::vector<WriteOp> ops;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < observes; ++i) {
      WriteOp op;
      op.config = configs[rng.uniform_index(configs.size())];
      op.n = sizes[rng.uniform_index(sizes.size())];
      ops.push_back(std::move(op));
    }
    ops.push_back(WriteOp{true, {}, 0});
  }
  return ops;
}

std::vector<WriteOp> churn_writes(const ServedModel& model) {
  return writer_sequence(homogeneous_configs(model.space), kWriterRounds,
                         kObservesPerRefit, stream_seed(20040426, 200));
}

std::vector<WriteOp> probe_writes(const ServedModel& model, std::uint64_t seed) {
  return writer_sequence(homogeneous_configs(model.space), kProbeRounds,
                         kProbeObserves, stream_seed(seed, 3));
}

std::vector<double> simulate(
    const cluster::ClusterSpec& spec, std::uint64_t salt,
    const std::vector<std::pair<cluster::Config, int>>& runs) {
  std::vector<double> wall(runs.size());
  const auto worker = [&](std::size_t first) {
    measure::Runner runner(spec, 64, salt);
    for (std::size_t i = first; i < runs.size(); i += 2)
      wall[i] = runner.measure(runs[i].first, runs[i].second).wall;
  };
  std::thread other(worker, 1);
  worker(0);
  other.join();
  return wall;
}

std::vector<double> writer_measurements(const cluster::ClusterSpec& spec,
                                        const std::vector<WriteOp>& ops) {
  std::map<std::string, std::size_t> cell_of;
  std::vector<std::pair<cluster::Config, int>> cells;
  for (const auto& op : ops)
    if (!op.refit &&
        cell_of.emplace(search::estimate_key(op.config, op.n), cells.size())
            .second)
      cells.emplace_back(op.config, op.n);
  const std::vector<double> wall = simulate(spec, kProductionSalt, cells);
  std::vector<double> measured;
  for (const auto& op : ops)
    measured.push_back(
        op.refit ? 0.0 : wall[cell_of.at(search::estimate_key(op.config, op.n))]);
  return measured;
}

bool satisfies(const cluster::Config& config,
               const std::vector<std::string>& exclude, int max_total_procs) {
  int procs = 0;
  for (const auto& u : config.usage) {
    if (u.pes == 0) continue;
    if (std::find(exclude.begin(), exclude.end(), u.kind) != exclude.end())
      return false;
    procs += u.pes * u.procs_per_pe;
  }
  return max_total_procs <= 0 || procs <= max_total_procs;
}

std::vector<core::Ranked> oracle_top(const std::vector<core::Ranked>& ranked,
                                     const std::vector<std::string>& exclude,
                                     int max_total_procs, int top) {
  std::vector<core::Ranked> out;
  for (const auto& r : ranked) {
    if (static_cast<int>(out.size()) == top) break;
    if (satisfies(r.config, exclude, max_total_procs)) out.push_back(r);
  }
  return out;
}

std::optional<cluster::Config> parse_config(const obs::json::Value& v) {
  if (!v.is_array()) return std::nullopt;
  cluster::Config config;
  for (const auto& e : v.as_array()) {
    if (!e.is_array() || e.as_array().size() != 3) return std::nullopt;
    const auto& t = e.as_array();
    if (!t[0].is_string() || !t[1].is_number() || !t[2].is_number())
      return std::nullopt;
    config.usage.push_back(cluster::KindUsage{
        t[0].as_string(), static_cast<int>(t[1].as_number()),
        static_cast<int>(t[2].as_number())});
  }
  return config;
}

const obs::json::Value* ok_result(const obs::json::Value& response) {
  if (!response.is_object()) return nullptr;
  const obs::json::Value* ok = response.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return nullptr;
  const obs::json::Value* result = response.find("result");
  return result != nullptr && result->is_object() ? result : nullptr;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

}  // namespace perfbench
