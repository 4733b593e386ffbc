// The traced run: the workload's seeded sequence replayed in-process.
//
// A server::Service is built over the same snapshot the socket run's
// server builds (the same plan fit, ModelBuilder and snapshot calls) and
// driven by the same request streams. Around each request the benchmark
// also calls every layer the request passes through, through that
// layer's public entry point, and wraps each call in a span (name,
// start, end, parent, request id). Spans stay in memory and are written
// out as a Chrome trace when the run ends; the per-layer metrics are
// derived from their durations. The same replay with spans off gives
// the tracing overhead. No end-to-end metric comes from this run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "core/model_builder.hpp"
#include "core/refit.hpp"
#include "load.hpp"
#include "measure/runner.hpp"
#include "obs/fine_hist.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "search/cache.hpp"
#include "search/engine.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace json = hetsched::obs::json;

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  ///< index of the enclosing span, -1 at the root
  std::uint64_t request;
};

/// In-memory span recorder; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t request) : t_(t) {
      if (!t_->on_) return;
      index_ = static_cast<int>(t_->spans_.size());
      t_->spans_.push_back(Span{name, t_->now_ns(), 0,
                                t_->stack_.empty() ? -1 : t_->stack_.back(),
                                request});
      t_->stack_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      t_->spans_[static_cast<std::size_t>(index_)].end_ns = t_->now_ns();
      t_->stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(this, name, request);
  }

  /// Durations in seconds of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (name == s.name) out.push_back(seconds(s));
    return out;
  }
  /// Per request: summed duration of the spans called `name`.
  std::map<std::uint64_t, double> per_request(const std::string& name) const {
    std::map<std::uint64_t, double> out;
    for (const Span& s : spans_)
      if (name == s.name) out[s.request] += seconds(s);
    return out;
  }
  static double seconds(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ",\"args\":{\"request\":" << s.request
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

std::uint64_t registry_counter(const std::string& name) {
  for (const auto& c : obs::snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One replayed request: the payload and what the service does with it.
struct Request {
  enum Kind { kAdvise, kEstimate, kObserve, kRefit, kOther } kind = kOther;
  int n = 0;
  int top = 0;
  std::vector<std::string> exclude;
  int max_total_procs = 0;
  cluster::Config config;
  double measured = 0;
  std::string body;
  bool burst_tail = false;  ///< last of a pipelined burst of kBurst
};

constexpr std::size_t kBurst = 16;

/// The workload's request sequence, interleaving its two connections
/// the way a single-threaded replay can: paper-hot sends one burst of
/// 16 estimates per 16 single reads, an observe (of the write probe's,
/// in turn) every 64 and a health + metrics scrape every 4096;
/// large-cold alternates its two streams; refit-churn puts two reads
/// beside every write.
std::vector<Request> replay_sequence(Workload w, std::uint64_t seed,
                                     const ServedModel& model) {
  std::vector<Request> seq;
  const auto read = [&](const ReadTemplate& t) {
    Request r;
    r.kind = t.advise ? Request::kAdvise : Request::kEstimate;
    r.n = t.n;
    r.top = t.top;
    r.exclude = t.exclude;
    r.config = t.config;
    r.body = t.body;
    return r;
  };
  if (w == Workload::kLargeCold) {
    Rng s1(stream_seed(seed, 1)), s2(stream_seed(seed, 2));
    for (int i = 0; i < 24; ++i) {
      const ColdAdvise a = next_cold_advise(i % 2 ? s2 : s1, model.space);
      Request r;
      r.kind = Request::kAdvise;
      r.n = a.n;
      r.top = a.top;
      r.exclude = a.exclude;
      r.max_total_procs = a.max_total_procs;
      r.body = advise_body(a.n, a.top, a.exclude, a.max_total_procs);
      seq.push_back(std::move(r));
    }
    return seq;
  }
  const ReadMix mix(model.space, seed);
  const auto& templates = mix.templates();
  const auto write = [](const WriteOp& op, double measured) {
    Request r;
    if (op.refit) {
      r.kind = Request::kRefit;
      r.body = op_body("refit");
    } else {
      r.kind = Request::kObserve;
      r.n = op.n;
      r.config = op.config;
      r.measured = measured;
      r.body = observe_body(r.config, r.n, r.measured);
    }
    return r;
  };
  if (w == Workload::kPaperHot) {
    std::vector<Request> observes;
    const std::vector<WriteOp> probe = probe_writes(model, seed);
    const std::vector<double> measured = writer_measurements(model.spec, probe);
    for (std::size_t i = 0; i < probe.size(); ++i)
      if (!probe[i].refit) observes.push_back(write(probe[i], measured[i]));
    Rng s1(stream_seed(seed, 1)), s2(stream_seed(seed, 2));
    for (std::size_t i = 0; i < 8192; ++i) {
      if (i % 64 == 63) seq.push_back(observes[(i / 64) % observes.size()]);
      if (i % 4096 == 4095) {
        for (const char* op : {"health", "metrics"}) {
          Request r;
          r.body = op_body(op);
          seq.push_back(std::move(r));
        }
      }
      seq.push_back(read(templates[mix.next(s1)]));
      if (i % kBurst == kBurst - 1)
        for (std::size_t b = 0; b < kBurst; ++b) {
          Request r = read(templates[mix.next_estimate(s2)]);
          r.burst_tail = b == kBurst - 1;
          seq.push_back(std::move(r));
        }
    }
    return seq;
  }
  const std::vector<WriteOp> writes = churn_writes(model);
  const std::vector<double> measured = writer_measurements(model.spec, writes);
  Rng s2(stream_seed(seed, 2));
  for (std::size_t i = 0; i < writes.size(); ++i) {
    seq.push_back(write(writes[i], measured[i]));
    for (int k = 0; k < 2; ++k) seq.push_back(read(templates[mix.next(s2)]));
  }
  return seq;
}

/// Every row of the space in enumeration order (kind 0 fastest), as
/// per-kind choice indices: what an advise sweep prices.
std::vector<std::size_t> all_rows(const core::ConfigSpace& space) {
  const auto& kinds = space.kinds();
  std::size_t total = 1;
  for (const auto& k : kinds) total *= k.choices.size();
  std::vector<std::size_t> rows;
  rows.reserve(total * kinds.size());
  std::vector<std::size_t> idx(kinds.size(), 0);
  for (std::size_t r = 0; r < total; ++r) {
    rows.insert(rows.end(), idx.begin(), idx.end());
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      if (++idx[k] < kinds[k].choices.size()) break;
      idx[k] = 0;
    }
  }
  return rows;
}

struct ReplayCounts {
  double wall_s = 0;
  std::uint64_t advises = 0;
  std::uint64_t rows = 0;
  std::uint64_t visited = 0;
  std::uint64_t pruned = 0;
  std::uint64_t candidates = 0;
  std::uint64_t refit_attempted = 0;
  std::uint64_t refit_accepted = 0;
  std::uint64_t buffered = 0;
  double response_bytes = 0;
  std::uint64_t responses = 0;
  std::uint64_t bursts = 0;
};

/// Replays `seq` against a fresh Service over a fresh snapshot of `est`.
ReplayCounts replay(const std::vector<Request>& seq, const core::Estimator& est,
                    const ServedModel& model, Tracer& tr) {
  auto make_snapshot = [&] {
    auto snap = std::make_shared<const server::ModelSnapshot>(est, model.space);
    for (const int n : model.prewarm) snap->batch_for(n);
    return snap;
  };
  server::ServiceOptions sopts;
  sopts.threads = kServerPoolThreads;
  server::Service service(make_snapshot(), sopts);
  // Mirrors of the service's own state, so that each layer is called
  // exactly when the service calls it: the answer cache (hit or miss),
  // the warm-size memo and the refit buffer.
  search::ShardedCache<std::string> cache(sopts.cache_shards,
                                          sopts.cache_max_entries_per_shard);
  const auto memo = make_snapshot();
  core::ObservationBuffer buffer(sopts.refit_buffer_capacity,
                                 sopts.refit_buffer_classes);
  const core::RefitEngine refit_engine(sopts.refit);
  search::EngineOptions eopts;
  eopts.threads = 1;  // a deterministic visit order and count
  eopts.use_cache = false;
  search::Engine engine(eopts);
  obs::FineHistogram hist;
  obs::flight::Ring ring(sopts.flight_capacity);
  const std::vector<std::size_t> rows = all_rows(model.space);
  const std::size_t kind_count = model.space.kinds().size();
  const std::size_t row_count = rows.size() / kind_count;
  std::vector<Seconds> priced(512);

  ReplayCounts counts;
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Request& q = seq[i];
    const std::uint64_t id = i + 1;
    const std::string payload = with_id(id, q.body);
    const auto root = tr.span("request", id);
    {
      const auto s = tr.span("server.protocol.frame", id);
      server::FrameReader reader;
      const std::string frame = server::encode_frame(payload);
      reader.feed(frame.data(), frame.size());
      std::string got;
      reader.next(got);
    }
    {
      const auto s = tr.span("obs.json.parse", id);
      (void)json::parse(payload);
    }
    const auto snap = service.snapshot();
    std::string key;
    bool miss = false;
    if (q.kind == Request::kAdvise || q.kind == Request::kEstimate) {
      key = "v1|" + std::string(q.kind == Request::kAdvise ? "advise" : "estimate") +
            "|m=" + hex(snap->fingerprint()) + "|c=" + snap->cluster_fingerprint();
      if (q.kind == Request::kAdvise) {
        std::vector<std::string> ex = q.exclude;
        std::sort(ex.begin(), ex.end());
        key += "|n=" + std::to_string(q.n) + "|top=" + std::to_string(q.top) + "|x=";
        for (const auto& k : ex) key += k + ",";
        key += "|p=" + std::to_string(q.max_total_procs);
      } else {
        key += '|';
        key += search::estimate_key(q.config, q.n);
      }
      const auto s = tr.span("search.cache.lookup", id);
      miss = !cache.lookup(key).has_value();
    }
    if (q.kind == Request::kAdvise) ++counts.advises;
    if (q.kind == Request::kAdvise && miss) {
      std::shared_ptr<const core::BatchEstimator> batch;
      {
        const auto s = tr.span("server.snapshot.batch_for", id);
        batch = memo->batch_for(q.n);
      }
      {
        const auto s = tr.span("core.batch.sweep", id);
        auto scratch = batch->make_scratch();
        for (std::size_t r = 0; r < row_count; r += priced.size()) {
          const std::size_t chunk = std::min(priced.size(), row_count - r);
          batch->estimate_rows(rows.data() + r * kind_count, chunk,
                               priced.data(), scratch);
        }
      }
      counts.rows += row_count;
      {
        const auto s = tr.span("search.engine.best", id);
        engine.best(snap->estimator(), model.space, q.n);
      }
      counts.visited += engine.stats().visited;
      counts.pruned += engine.stats().pruned;
      counts.candidates += engine.stats().candidates;
    }
    if ((q.kind == Request::kEstimate && miss) || q.kind == Request::kObserve) {
      core::Estimator::Breakdown bd;
      {
        const auto s = tr.span("core.estimator.breakdown", id);
        bd = snap->estimator().breakdown(q.config, q.n);
      }
      if (q.kind == Request::kObserve) {
        double tai = 0, tci = 0;
        for (const auto& k : bd.kinds) {
          tai += k.tai;
          tci += k.tci;
        }
        const double ratio = tai + tci > 0 ? tai / (tai + tci) : 1.0;
        buffer.add(core::Observation{q.config, q.n, ratio * q.measured,
                                     q.measured - ratio * q.measured});
      }
    }
    if (q.kind == Request::kRefit) {
      core::RefitReport report;
      {
        const auto s = tr.span("core.refit.refit", id);
        report = refit_engine.refit(snap->estimator(), buffer);
      }
      {
        const auto s = tr.span("core.refit.detect_drift", id);
        (void)refit_engine.detect_drift(snap->estimator(), buffer);
      }
      for (const auto& c : report.classes)
        if (c.action != "skipped") ++counts.refit_attempted;
      counts.refit_accepted += report.accepted;
      counts.buffered = buffer.size();
    }
    {
      const auto s = tr.span("obs.record", id);
      hist.record(1e-5);
      ring.record(1, 0, miss ? 2 : 1, q.n, snap->fingerprint(), id, 10);
    }
    std::string resp;
    {
      const auto s = tr.span("server.service.handle_payload", id);
      resp = service.handle_payload(payload);
    }
    if (miss) cache.insert(key, resp);
    counts.response_bytes += static_cast<double>(resp.size());
    ++counts.responses;
    {
      const auto s = tr.span("server.protocol.frame", id);
      server::FrameReader reader;
      const std::string frame = server::encode_frame(resp);
      reader.feed(frame.data(), frame.size());
      std::string got;
      reader.next(got);
    }
    if (q.burst_tail && i + 1 >= kBurst) {
      // The burst again, as one pipelined batch and as kBurst single
      // requests, after each of its requests has been answered once, so
      // that both find the answers cached, as the socket run's bursts do.
      // The two go first by turns.
      std::vector<std::string> burst;
      for (std::size_t b = i + 1 - kBurst; b <= i; ++b)
        burst.push_back(with_id(b + 1, seq[b].body));
      const auto batch = [&] {
        const auto s = tr.span("support.pool.handle_batch", id);
        service.handle_batch(burst);
      };
      const auto serial = [&] {
        const auto s = tr.span("support.pool.serial", id);
        for (const auto& p : burst) service.handle_payload(p);
      };
      if (++counts.bursts % 2 != 0) {
        batch();
        serial();
      } else {
        serial();
        batch();
      }
    }
  }
  counts.wall_s = std::chrono::duration<double>(Clock::now() - begin).count();
  return counts;
}

std::vector<double> values(const std::map<std::uint64_t, double>& m) {
  std::vector<double> out;
  for (const auto& [k, v] : m) out.push_back(v);
  return out;
}

}  // namespace

Metrics traced_run(Workload w, std::uint64_t seed, const std::string& span_path) {
  Metrics out;
  Tracer tr(true);
  const ServedModel model = served_model(w);

  // Set-up, call by call: what the server does before its ready line.
  measure::Runner runner(model.spec);
  const std::uint64_t events0 = registry_counter("des.events_dispatched");
  core::MeasurementSet ms;
  {
    const auto s = tr.span("measure.run_plan");
    ms = runner.run_plan(model.plan);
  }
  const std::uint64_t events = registry_counter("des.events_dispatched") - events0;
  std::optional<core::Estimator> est;
  {
    const auto s = tr.span("core.model_builder.build");
    est = core::ModelBuilder(model.spec).build(ms);
  }
  {
    const auto s = tr.span("server.snapshot.build");
    auto snap = std::make_shared<const server::ModelSnapshot>(*est, model.space);
    for (const int n : model.prewarm) snap->batch_for(n);
  }

  // After one untimed replay (the process's first is the slowest), the
  // replay with spans on and with spans off, kOverheadPairs times in
  // alternating order; the first spans-on replay's spans give the
  // metrics, the median wall-time ratio the tracing overhead.
  constexpr int kOverheadPairs = 4;
  const std::vector<Request> seq = replay_sequence(w, seed, model);
  Tracer untimed(false);
  replay(seq, *est, model, untimed);
  ReplayCounts c;
  std::vector<double> ratios;
  for (int k = 0; k < kOverheadPairs; ++k) {
    Tracer off(false);
    Tracer more(true);
    Tracer& on = k == 0 ? tr : more;
    ReplayCounts with, without;
    if (k % 2 == 0) {
      without = replay(seq, *est, model, off);
      with = replay(seq, *est, model, on);
    } else {
      with = replay(seq, *est, model, on);
      without = replay(seq, *est, model, off);
    }
    if (k == 0) c = with;
    ratios.push_back(with.wall_s / without.wall_s);
  }
  tr.write(span_path);

  const auto med = [&](const char* name) { return median(tr.durations(name)); };
  // Service self time: handle_payload minus the layer calls made for
  // the same request.
  std::map<std::uint64_t, double> layers;
  for (const char* name :
       {"obs.json.parse", "search.cache.lookup", "server.snapshot.batch_for",
        "core.batch.sweep", "core.estimator.breakdown", "core.refit.refit",
        "core.refit.detect_drift", "obs.record"})
    for (const auto& [req, t] : tr.per_request(name)) layers[req] += t;
  std::vector<double> self;
  for (const auto& [req, total] : tr.per_request("server.service.handle_payload"))
    self.push_back(total - layers[req]);
  const auto batch = tr.per_request("support.pool.handle_batch");
  const auto serial = tr.per_request("support.pool.serial");
  std::vector<double> fanout;
  for (const auto& [req, t] : batch) fanout.push_back(t - serial.at(req));

  out["server.protocol.frame_s"] = {median(values(tr.per_request("server.protocol.frame"))), "s"};
  out["server.protocol.response_bytes"] = {
      c.responses ? c.response_bytes / static_cast<double>(c.responses) : 0.0, "bytes"};
  out["obs.json.parse_s"] = {med("obs.json.parse"), "s"};
  out["server.service.self_s"] = {median(self), "s"};
  out["obs.record_s"] = {med("obs.record"), "s"};
  out["support.pool.fanout_s"] = {median(fanout), "s"};
  out["search.cache.lookup_s"] = {med("search.cache.lookup"), "s"};
  out["server.snapshot.batch_for_s"] = {med("server.snapshot.batch_for"), "s"};
  const double sweep = med("core.batch.sweep");
  const std::size_t space_rows = model.space.size() + 1;
  out["core.batch.sweep_s"] = {sweep, "s"};
  out["core.batch.rows_per_advise"] = {
      c.advises ? static_cast<double>(c.rows) / static_cast<double>(c.advises) : 0.0,
      "count"};
  out["core.batch.ns_per_row"] = {sweep * 1e9 / static_cast<double>(space_rows), "ns"};
  out["search.engine.best_s"] = {med("search.engine.best"), "s"};
  out["search.engine.visited"] = {static_cast<double>(c.visited), "count"};
  out["search.engine.pruned_frac"] = {
      c.candidates ? static_cast<double>(c.pruned) / static_cast<double>(c.candidates) : 0.0,
      "ratio"};
  out["core.estimator.breakdown_s"] = {med("core.estimator.breakdown"), "s"};
  out["core.refit.refit_s"] = {med("core.refit.refit"), "s"};
  out["core.refit.detect_drift_s"] = {med("core.refit.detect_drift"), "s"};
  out["core.refit.accepted"] = {static_cast<double>(c.refit_accepted), "count"};
  out["core.refit.attempted"] = {static_cast<double>(c.refit_attempted), "count"};
  out["core.refit.accepted_frac"] = {
      c.refit_attempted ? static_cast<double>(c.refit_accepted) /
                              static_cast<double>(c.refit_attempted)
                        : 0.0,
      "ratio"};
  out["core.refit.buffered"] = {static_cast<double>(c.buffered), "count"};
  out["measure.run_plan_s"] = {med("measure.run_plan"), "s"};
  out["measure.runs"] = {static_cast<double>(runner.runs_executed()), "count"};
  out["des.events"] = {static_cast<double>(events), "count"};
  out["core.model_builder.build_s"] = {med("core.model_builder.build"), "s"};
  out["server.snapshot.build_s"] = {med("server.snapshot.build"), "s"};
  out["trace.overhead_frac"] = {median(ratios) - 1.0, "ratio"};
  return out;
}

}  // namespace perfbench
