#include "measure/runner.hpp"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "hpl/cost_engine.hpp"
#include "obs/hooks.hpp"
#include "support/error.hpp"
#include "support/work_steal.hpp"

namespace hetsched::measure {

WorkloadFn hpl_workload(int nb) {
  HETSCHED_CHECK(nb >= 1, "hpl_workload: nb >= 1 required");
  return [nb](const cluster::ClusterSpec& spec, const cluster::Config& config,
              int n, std::uint64_t salt) {
    hpl::HplParams params;
    params.n = n;
    params.nb = nb;
    params.seed_salt = salt;
    const hpl::HplResult res = hpl::run_cost(spec, config, params);
    core::Sample s;
    s.config = config;
    s.n = n;
    s.wall = res.makespan;
    s.measured_cost = res.makespan;
    for (const auto& kt : res.by_kind(spec))
      s.kinds.push_back(core::Sample::KindMeasure{kt.kind, kt.tai, kt.tci});
    return s;
  };
}

Runner::Runner(cluster::ClusterSpec spec, int nb, std::uint64_t salt)
    : Runner(std::move(spec), hpl_workload(nb), salt) {}

Runner::Runner(cluster::ClusterSpec spec, WorkloadFn workload,
               std::uint64_t salt)
    : spec_(std::move(spec)), workload_(std::move(workload)), salt_(salt) {
  HETSCHED_CHECK(static_cast<bool>(workload_),
                 "Runner: workload must be callable");
}

void Runner::set_faults(FaultPlan plan) {
  injector_ = FaultInjector(std::move(plan));
}

void Runner::set_retry(RetryPolicy policy) {
  HETSCHED_CHECK(policy.max_attempts >= 1,
                 "set_retry: max_attempts >= 1 required");
  HETSCHED_CHECK(policy.backoff_base_s >= 0.0 && policy.backoff_mult >= 1.0,
                 "set_retry: backoff_base_s >= 0 and backoff_mult >= 1 "
                 "required");
  retry_ = policy;
}

std::string Runner::cache_key(const cluster::Config& config, int n,
                              int repeats) const {
  std::ostringstream os;
  os << config.to_string() << '@' << n;
  if (repeats > 1) os << "#x" << repeats;
  return os.str();
}

const core::Sample* Runner::cached(const std::string& key) const {
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    HETSCHED_COUNTER_ADD("measure.cache_hits", 1);
    return &it->second;
  }
  if (failed_keys_.count(key))
    throw MeasurementFailure("measure: run " + key +
                             " already failed permanently");
  return nullptr;
}

std::optional<core::Sample> Runner::attempt_run(const cluster::Config& config,
                                                int n, std::uint64_t h_base,
                                                Outcome& out) const {
  // Simulated seconds burned by failed attempts and backoff waits; folded
  // into measured_cost so the Tables 3/6 cost accounting reflects the
  // campaign's real price, not just the surviving run.
  double wasted_s = 0.0;
  double backoff_s = retry_.backoff_base_s;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    // Attempt 0 keeps the historical hash so fault-free campaigns are
    // bit-identical to pre-fault builds; re-runs decorrelate by mixing
    // the attempt index in.
    std::uint64_t h = h_base;
    if (attempt > 0)
      h = (h ^ static_cast<std::uint64_t>(attempt)) * 0x100000001b3ULL;

    const FaultOutcome outcome = injector_.draw(config, n, attempt);
    out.faults += static_cast<std::size_t>(outcome.events);
    if (outcome.failed) {
      ++out.aborted;
      if (attempt + 1 >= retry_.max_attempts) break;
      out.waits.push_back(backoff_s);
      wasted_s += backoff_s;
      backoff_s *= retry_.backoff_mult;
      continue;
    }

    HETSCHED_TRACE_SPAN_VAR(obs_span, "measure", "sample");
    obs_span.arg("config", config.to_string()).arg("n", n);
    if (attempt > 0) obs_span.arg("attempt", attempt);
    ++out.started;
    core::Sample s = workload_(spec_, config, n, h);
    if (injector_.enabled()) FaultInjector::apply(outcome, &s);
    out.walls.push_back(s.wall);

    if (outcome.outlier && retry_.retry_outliers &&
        attempt + 1 < retry_.max_attempts) {
      // A watchdog caught the outlier: burn the run and go again.
      wasted_s += s.wall;
      out.waits.push_back(backoff_s);
      wasted_s += backoff_s;
      backoff_s *= retry_.backoff_mult;
      continue;
    }

    s.measured_cost += wasted_s;
    return s;
  }
  return std::nullopt;
}

Runner::Outcome Runner::simulate(const cluster::Config& config, int n,
                                 int repeats, const std::string& key) const {
  Outcome out;
  try {
    for (int trial = 0; trial < repeats; ++trial) {
      // Distinct noise per (campaign, config, size, trial): hash the key.
      // A single measurement keeps the historical seed.
      const std::uint64_t seed =
          repeats == 1 ? salt_
                       : salt_ + 1444 * static_cast<std::uint64_t>(trial) + 1;
      std::uint64_t h = seed * 0x100000001b3ULL;
      for (const char c : key)
        h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
      std::optional<core::Sample> s = attempt_run(config, n, h, out);
      if (!s) {
        out.failed = true;
        return out;
      }
      if (repeats == 1) {
        out.sample = std::move(*s);
        return out;
      }
      // measured_cost includes retry/backoff waste, so accumulate it
      // (equal to wall on a clean run — the historical accounting).
      core::Sample& avg = out.sample;
      if (trial == 0) {
        avg = std::move(*s);
        avg.measured_cost =
            avg.measured_cost > 0 ? avg.measured_cost : avg.wall;
      } else {
        HETSCHED_CHECK(s->kinds.size() == avg.kinds.size(),
                       "measure_repeated: inconsistent kind count");
        avg.wall += s->wall;
        avg.measured_cost +=
            s->measured_cost > 0 ? s->measured_cost : s->wall;
        for (std::size_t k = 0; k < s->kinds.size(); ++k) {
          avg.kinds[k].tai += s->kinds[k].tai;
          avg.kinds[k].tci += s->kinds[k].tci;
        }
      }
    }
  } catch (...) {
    out.error = std::current_exception();
    return out;
  }
  core::Sample& avg = out.sample;
  avg.trials = repeats;
  avg.wall /= repeats;
  for (auto& k : avg.kinds) {
    k.tai /= repeats;
    k.tci /= repeats;
  }
  return out;
}

const core::Sample& Runner::commit(const std::string& key,
                                   const cluster::Config& config, int n,
                                   const Outcome& out) {
  HETSCHED_COUNTER_ADD("measure.cache_misses", 1);
  runs_ += out.walls.size();
  retries_ += out.waits.size();
  faults_injected_ += out.faults;
  // Metrics the serial loop never touched stay unregistered.
  if (out.faults > 0)
    HETSCHED_COUNTER_ADD("measure.faults_injected", out.faults);
  if (out.aborted > 0)
    HETSCHED_COUNTER_ADD("measure.run_failures", out.aborted);
  if (out.started > 0) HETSCHED_COUNTER_ADD("measure.runs", out.started);
  if (!out.waits.empty())
    HETSCHED_COUNTER_ADD("measure.retries", out.waits.size());
  // `w` is unused under HETSCHED_OBS=OFF, where the hooks compile away.
  for ([[maybe_unused]] const double w : out.waits)
    HETSCHED_HISTOGRAM_RECORD("measure.backoff_wait_s", w);
  for ([[maybe_unused]] const double w : out.walls)
    HETSCHED_HISTOGRAM_RECORD("measure.sample_wall_s", w);

  if (out.error) std::rethrow_exception(out.error);
  if (out.failed) {
    failed_keys_.insert(key);
    failures_.push_back(FailedRun{config, n, retry_.max_attempts});
    HETSCHED_COUNTER_ADD("measure.runs_abandoned", 1);
    throw MeasurementFailure("measure: run " + key + " failed after " +
                             std::to_string(retry_.max_attempts) +
                             " attempts");
  }
  return cache_.emplace(key, out.sample).first->second;
}

const core::Sample& Runner::measure(const cluster::Config& config, int n) {
  return measure_repeated(config, n, 1);
}

const core::Sample& Runner::measure_repeated(const cluster::Config& config,
                                             int n, int repeats) {
  HETSCHED_CHECK(repeats >= 1, "measure_repeated: repeats >= 1");
  const std::string key = cache_key(config, n, repeats);
  if (const core::Sample* hit = cached(key)) return *hit;
  return commit(key, config, n, simulate(config, n, repeats, key));
}

core::MeasurementSet Runner::run_plan(const MeasurementPlan& plan) {
  HETSCHED_TRACE_SPAN_VAR(obs_span, "measure", "run_plan");
  obs_span.arg("plan", plan.name);

  // The plan's runs in plan order, and one simulation slot per distinct
  // key the cache cannot answer yet.
  struct Entry {
    cluster::Config config;
    int n = 0;
    std::string key;
  };
  std::vector<Entry> entries;
  const auto add = [&](const cluster::Config& config, int n) {
    entries.push_back(Entry{config, n, cache_key(config, n, plan.repeats)});
  };
  for (const auto& config : plan.construction_configs())
    for (const int n : plan.ns) add(config, n);
  for (const auto& config : plan.adjust_configs)
    for (const int n : plan.adjust_ns) add(config, n);
  HETSCHED_CHECK(entries.empty() || plan.repeats >= 1,
                 "measure_repeated: repeats >= 1");

  std::vector<const Entry*> jobs;
  std::map<std::string, std::size_t> slot_of;
  for (const Entry& e : entries)
    if (!cache_.count(e.key) && !failed_keys_.count(e.key) &&
        slot_of.emplace(e.key, 0).second)
      jobs.push_back(&e);
  // Heaviest first (work grows with N·P), so the lightest runs are the
  // ones left to balance the tail.
  const auto weight = [](const Entry* e) {
    return static_cast<double>(e->n) * e->config.total_procs();
  };
  std::stable_sort(jobs.begin(), jobs.end(),
                   [&](const Entry* a, const Entry* b) {
                     return weight(a) > weight(b);
                   });
  for (std::size_t i = 0; i < jobs.size(); ++i) slot_of[jobs[i]->key] = i;

  std::vector<Outcome> outcomes(jobs.size());
  if (!jobs.empty()) {
    const std::size_t cores =
        std::max(1u, std::thread::hardware_concurrency());
    support::WorkStealingPool pool(std::min(cores, jobs.size()));
    pool.parallel_for(jobs.size(), [&](std::size_t i) {
      outcomes[i] =
          simulate(jobs[i]->config, jobs[i]->n, plan.repeats, jobs[i]->key);
    });
  }

  // Commit in plan order: the cache, the tallies, failures() and the
  // set come out exactly as a serial measure_repeated pass leaves them.
  core::MeasurementSet ms;
  for (const Entry& e : entries) {
    // A permanently failed run is a hole in the campaign, not the end of
    // it: record the gap (ModelBuilder degrades around it) and move on.
    try {
      const core::Sample* s = cached(e.key);
      if (s == nullptr)
        s = &commit(e.key, e.config, e.n, outcomes[slot_of.at(e.key)]);
      ms.add(*s);
    } catch (const MeasurementFailure&) {
      ms.add_failure(e.config, e.n);
    }
  }
  return ms;
}

}  // namespace hetsched::measure
