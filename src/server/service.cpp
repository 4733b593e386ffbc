#include "server/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/hooks.hpp"
#include "obs/json.hpp"
// The `metrics` wire op serves a snapshot of the whole registry — this
// is a scrape endpoint, not instrumentation, so the direct dependency
// is intentional. hetsched-lint: allow(obs-direct)
#include "obs/metrics.hpp"
#include "search/engine.hpp"
#include "support/error.hpp"
#include "support/thread_annotations.hpp"

namespace hetsched::server {

namespace {

namespace json = hetsched::obs::json;
using json::hex_fingerprint;
using json::json_number_or_null;

/// Most ranked results one `advise` may request (docs/SERVER.md §4.3).
constexpr int kMaxTop = 64;
/// Batches smaller than this are handled inline on the calling thread,
/// and so are the requests of a larger batch that are not cache hits
/// when fewer than this many remain: the fork-join handoff costs more
/// than a cached answer.
constexpr std::size_t kMinBatchForPool = 4;

/// Op table for the flight recorder and the per-op latency histograms.
/// Index 0 is the bucket for requests that never resolved to an op
/// (unparseable JSON, missing/bad `op` member, version mismatch).
/// Order is frozen: flight dumps and the `metrics` op's "ops" object
/// follow it, and docs/SERVER.md §9 transcripts pin the rendering.
const std::vector<std::string>& op_table() {
  static const std::vector<std::string> ops = {
      "?",     "ping",    "hello",  "estimate", "advise", "stats",
      "reload", "metrics", "health", "flight",   "observe", "refit"};
  return ops;
}

/// Error-code table: index 0 is "ok" (rendered as "" in flight dumps);
/// the rest mirror the errc:: taxonomy in protocol.hpp.
const std::vector<std::string>& code_table() {
  static const std::vector<std::string> codes = {
      "",          "bad-json",    "bad-request", "unsupported-version",
      "unknown-op", "uncovered",  "unavailable", "internal",
      "oversized-frame"};
  return codes;
}

/// Indices into op_table().
enum OpIndex : std::uint16_t {
  kOpUnresolved,
  kOpPing,
  kOpHello,
  kOpEstimate,
  kOpAdvise,
  kOpStats,
  kOpReload,
  kOpMetrics,
  kOpHealth,
  kOpFlight,
  kOpObserve,
  kOpRefit,
};

std::uint16_t code_index(const char* code) {
  const auto& codes = code_table();
  for (std::size_t i = 1; i < codes.size(); ++i)
    if (std::strcmp(code, codes[i].c_str()) == 0)
      return static_cast<std::uint16_t>(i);
  return 7;  // "internal" — unreachable for errc:: codes
}

/// Request id rendered in canonical form (string, integer-valued number,
/// or "null" when absent/invalid — docs/SERVER.md §3).
std::string render_id(const json::Value* id) {
  if (id == nullptr) return "null";
  if (id->is_string()) return json_quote(id->as_string());
  if (id->is_number()) {
    const double v = id->as_number();
    if (std::isfinite(v)) return json_number(v);
  }
  return "null";
}

std::string ok_response(const std::string& id, const std::string& result) {
  std::string out;
  out.reserve(result.size() + 48);
  out += "{\"hsp\":1,\"id\":";
  out += id;
  out += ",\"ok\":true,\"result\":";
  out += result;
  out += '}';
  return out;
}

/// Thrown internally to unwind request handling into an error response.
struct RequestError {
  const char* code;
  std::string message;
};

[[noreturn]] void bad_request(const std::string& message) {
  throw RequestError{errc::kBadRequest, message};
}

/// Positive integral number in [1, limit]; anything else is bad-request.
int require_int(const json::Value& v, const char* name, int limit) {
  if (!v.is_number()) bad_request(std::string(name) + " must be a number");
  const double d = v.as_number();
  if (!(d >= 1.0) || d > double(limit) || d != std::floor(d))
    bad_request(std::string(name) + " must be an integer in [1, " +
                std::to_string(limit) + "]");
  return static_cast<int>(d);
}

/// "config" request member: [[kind, pes, m], ...] → cluster::Config. A
/// kind named twice or more PEs than the cluster has is bad-request; an
/// unknown kind passes to be reported uncovered (docs/SERVER.md §4.3).
cluster::Config parse_config(const json::Value& v,
                             const cluster::ClusterSpec& spec) {
  if (!v.is_array() || v.as_array().empty())
    bad_request("config must be a non-empty array of [kind, pes, m]");
  cluster::Config config;
  config.usage.reserve(v.as_array().size());
  for (const auto& item : v.as_array()) {
    if (!item.is_array() || item.as_array().size() != 3)
      bad_request("config entries must be [kind, pes, m] triples");
    const auto& t = item.as_array();
    if (!t[0].is_string())
      bad_request("config entry kind must be a string");
    cluster::KindUsage u;
    u.kind = t[0].as_string();
    u.pes = require_int(t[1], "config entry pes", 1 << 20);
    u.procs_per_pe = require_int(t[2], "config entry m", 1 << 20);
    for (const auto& prev : config.usage)
      if (prev.kind == u.kind)
        bad_request("config names kind " + u.kind + " twice");
    int available = 0;
    for (const auto& node : spec.nodes)
      if (node.kind.name == u.kind) available += node.cpus;
    if (available > 0 && u.pes > available)
      bad_request("config uses " + std::to_string(u.pes) + " PEs of kind " +
                  u.kind + "; the cluster has " + std::to_string(available));
    config.usage.push_back(std::move(u));
  }
  return config;
}

/// Canonical JSON form of a configuration, mirroring the request shape,
/// plus the human label (docs/SERVER.md §4.3). Leaves the emitted object
/// open so the caller can append further members.
void append_config(std::string& out, const cluster::Config& config) {
  out += "{\"label\":";
  out += json_quote(config.to_string());
  out += ",\"config\":[";
  bool first = true;
  for (const auto& u : config.usage) {
    if (u.pes == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    out += json_quote(u.kind);
    out += ',';
    out += json_int(u.pes);
    out += ',';
    out += json_int(u.procs_per_pe);
    out += ']';
  }
  out += ']';
}

struct AdviseParams {
  int n = 0;
  search::Query query;  // exclude sorted and deduplicated
};

AdviseParams parse_advise(const json::Value& req) {
  AdviseParams p;
  search::Query& q = p.query;
  const json::Value* n = req.find("n");
  if (n == nullptr) bad_request("advise requires n");
  p.n = require_int(*n, "n", 1 << 30);
  if (const json::Value* top = req.find("top"))
    q.top = static_cast<std::size_t>(require_int(*top, "top", kMaxTop));
  if (const json::Value* c = req.find("constraints")) {
    if (!c->is_object()) bad_request("constraints must be an object");
    for (const auto& [key, value] : c->as_object()) {
      if (key == "exclude") {
        if (!value.is_array())
          bad_request("constraints.exclude must be an array of kind names");
        for (const auto& k : value.as_array()) {
          if (!k.is_string())
            bad_request("constraints.exclude entries must be strings");
          q.exclude.push_back(k.as_string());
        }
      } else if (key == "max_total_procs") {
        q.max_total_procs = require_int(value, "constraints.max_total_procs",
                                        1 << 20);
      } else {
        bad_request("unknown constraint: " + key);
      }
    }
  }
  std::sort(q.exclude.begin(), q.exclude.end());
  q.exclude.erase(std::unique(q.exclude.begin(), q.exclude.end()),
                  q.exclude.end());
  return p;
}

/// Cache key for an advise answer: every input the result depends on,
/// in a fixed order (docs/SERVER.md §6).
std::string advise_cache_key(const ModelSnapshot& snap,
                             const AdviseParams& p) {
  std::string key = "v1|advise|m=";
  key += hex_fingerprint(snap.fingerprint());
  key += "|c=";
  key += snap.cluster_fingerprint();
  key += "|n=";
  key += std::to_string(p.n);
  key += "|top=";
  key += std::to_string(p.query.top);
  key += "|x=";
  for (const auto& k : p.query.exclude) {
    key += k;
    key += ',';
  }
  key += "|p=";
  key += std::to_string(p.query.max_total_procs);
  return key;
}

std::string estimate_cache_key(const ModelSnapshot& snap,
                               const cluster::Config& config, int n) {
  const std::string model = hex_fingerprint(snap.fingerprint());
  const std::string estimate = search::estimate_key(config, n);
  std::string key;
  key.reserve(18 + model.size() + snap.cluster_fingerprint().size() +
              estimate.size());
  key += "v1|estimate|m=";
  key += model;
  key += "|c=";
  key += snap.cluster_fingerprint();
  key += '|';
  key += estimate;
  return key;
}

/// The argmin query (search::top_k on the snapshot's warmed batch
/// estimator, on the calling thread) as its canonical result document.
std::string advise_result(const ModelSnapshot& snap, const AdviseParams& p) {
  const search::TopK found =
      search::top_k(snap.estimator(), snap.space(), *snap.batch_for(p.n),
                    p.query);
  if (found.best.empty())
    throw RequestError{errc::kUncovered,
                       "no candidate satisfies the constraints and is "
                       "covered by the model set"};

  std::string out = "{\"n\":";
  out += json_int(p.n);
  out += ",\"candidates\":";
  out += json_int(static_cast<std::int64_t>(snap.candidates()));
  out += ",\"covered\":";
  out += json_int(static_cast<std::int64_t>(found.covered));
  out += ",\"best\":[";
  for (std::size_t i = 0; i < found.best.size(); ++i) {
    if (i != 0) out += ',';
    append_config(out, found.best[i].config);  // leaves the object open
    out += ",\"t\":";
    out += json_number(found.best[i].estimate);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string estimate_result(const ModelSnapshot& snap,
                            const cluster::Config& config, int n) {
  if (!snap.estimator().covers(config))
    throw RequestError{errc::kUncovered,
                       "model set does not cover " + config.to_string()};
  const core::Estimator::Breakdown bd =
      snap.estimator().breakdown(config, n);
  std::string out = "{\"n\":";
  out += json_int(n);
  out += ",\"label\":";
  out += json_quote(config.to_string());
  out += ",\"t\":";
  out += json_number(bd.total);
  out += ",\"paged\":";
  out += bd.paged ? "true" : "false";
  out += ",\"adjusted\":";
  out += bd.adjusted ? "true" : "false";
  out += ",\"provenance\":";
  out += json_quote(core::to_string(bd.provenance));
  out += '}';
  return out;
}

std::string hello_result(const ModelSnapshot& snap) {
  std::string out = "{\"version\":";
  out += json_int(kProtocolVersion);
  out += ",\"server\":\"hetsched_advisord/1\",\"model_fingerprint\":";
  out += json_quote(hex_fingerprint(snap.fingerprint()));
  out += ",\"cluster_fingerprint\":";
  out += json_quote(snap.cluster_fingerprint());
  out += ",\"candidates\":";
  out += json_int(static_cast<std::int64_t>(snap.candidates()));
  out += '}';
  return out;
}

}  // namespace

Service::Service(std::shared_ptr<const ModelSnapshot> snapshot,
                 ServiceOptions options)
    : options_(options),
      slot_(std::move(snapshot)),
      cache_(options.cache_shards, options.cache_max_entries_per_shard),
      pool_(options.threads),
      flight_(options.flight_capacity),
      obs_buf_(options.refit_buffer_capacity, options.refit_buffer_classes) {
  HETSCHED_CHECK(this->snapshot() != nullptr,
                 "Service requires an initial snapshot");
  static_assert(Service::kOpTableSize == kOpRefit + 1,
                "op_wall_ and OpIndex must cover every entry of op_table()");
  start_us_ = clock_now_us();
  HETSCHED_ATOMIC_DOC(relaxed, "constructor runs before any server thread; "
                               "the atomic exists for later swap updates");
  published_us_.store(start_us_, std::memory_order_relaxed);
  if (options_.refit_interval_us > 0) {
    refit_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> l(refit_stop_mu_);
      for (;;) {
        HETSCHED_ATOMIC_DOC(relaxed, "stop flag; the cv wait under "
                                     "refit_stop_mu_ orders the handshake");
        const bool stopped = refit_stop_cv_.wait_for(
            l, std::chrono::microseconds(options_.refit_interval_us),
            [this] { return refit_stop_.load(std::memory_order_relaxed); });
        if (stopped) return;
        l.unlock();
        refit_now();
        l.lock();
      }
    });
  }
}

Service::~Service() {
  if (refit_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> l(refit_stop_mu_);
      HETSCHED_ATOMIC_DOC(relaxed, "stop flag; publishing under the cv "
                                   "mutex pairs with the waiter");
      refit_stop_.store(true, std::memory_order_relaxed);
    }
    refit_stop_cv_.notify_all();
    refit_thread_.join();
  }
}

std::uint64_t Service::clock_now_us() const {
  if (options_.now_us != nullptr) return options_.now_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Service::swap_snapshot(std::shared_ptr<const ModelSnapshot> snapshot) {
  HETSCHED_CHECK(snapshot != nullptr, "cannot publish a null snapshot");
  {
    std::lock_guard<std::mutex> l(slot_mu_);
    slot_.swap(snapshot);
  }
  // `snapshot` now holds the displaced model. Dropping the last reference
  // to it destroys its estimator and warmed sweeps; that happens at the
  // end of this function, outside slot_mu_, so readers never wait on it.
  HETSCHED_ATOMIC_DOC(relaxed, "freshness timestamp for health output; the "
                               "snapshot itself is published under "
                               "slot_mu_ above");
  published_us_.store(clock_now_us(), std::memory_order_relaxed);
  HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic");
  swaps_.fetch_add(1, std::memory_order_relaxed);
  HETSCHED_COUNTER_ADD("server.snapshot_swaps", 1);
}

void Service::connection_opened() {
  HETSCHED_ATOMIC_DOC(relaxed, "connection gauge; no payload rides on it");
  [[maybe_unused]] const std::int64_t open =  // unused when HETSCHED_OBS=OFF
      open_connections_.fetch_add(1, std::memory_order_relaxed) + 1;
  HETSCHED_GAUGE_SET("server.open_connections", open);
}

void Service::connection_closed() {
  HETSCHED_ATOMIC_DOC(relaxed, "connection gauge; no payload rides on it");
  [[maybe_unused]] const std::int64_t open =  // unused when HETSCHED_OBS=OFF
      open_connections_.fetch_sub(1, std::memory_order_relaxed) - 1;
  HETSCHED_GAUGE_SET("server.open_connections", open);
}

void Service::set_draining(bool draining) {
  HETSCHED_ATOMIC_DOC(relaxed, "advisory admission flag; readers act on "
                               "whatever value they observe");
  draining_.store(draining, std::memory_order_relaxed);
}

std::shared_ptr<const ModelSnapshot> Service::snapshot() const {
  std::lock_guard<std::mutex> l(slot_mu_);
  return slot_;
}

void Service::set_reload_handler(ReloadHandler handler) {
  std::lock_guard<std::mutex> l(reload_mu_);
  reload_ = std::move(handler);
}

/// One request from its parse to its answer: what start() resolved for
/// finish(), the flight recorder's and the per-op histograms' metadata,
/// and the response once there is one.
struct Service::Request {
  std::uint64_t arrival = 0;  ///< clock_now_us() when start() began
  std::uint16_t op = kOpUnresolved;
  std::uint16_t code = 0;   ///< 0 = ok, else error-code-table index
  std::uint16_t cache = 0;  ///< 0 = n/a, 1 = hit, 2 = miss
  std::int32_t n = 0;       ///< problem size, 0 when not applicable
  std::uint64_t fingerprint = 0;
  json::Value doc;
  std::string id = "null";  ///< rendered request id
  std::shared_ptr<const ModelSnapshot> snap;
  std::string key;          ///< answer-cache key of an estimate or advise
  cluster::Config config;   ///< an estimate's configuration
  AdviseParams advise;
  std::string response;

  void ok(const std::string& result) { response = ok_response(id, result); }
  void fail(const char* error, const std::string& message) {
    code = code_index(error);
    response = error_response(id, error, message);
  }
};

bool Service::start(const std::string& payload, Request& r) {
  r.arrival = clock_now_us();
  HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic");
  requests_.fetch_add(1, std::memory_order_relaxed);
  HETSCHED_COUNTER_ADD("server.requests", 1);
  try {
    r.doc = json::parse(payload);
  } catch (const json::ParseError& e) {
    r.fail(errc::kBadJson, e.what());
    return true;
  }
  r.id = render_id(r.doc.find("id"));
  try {
    if (!r.doc.is_object()) bad_request("request must be a JSON object");

    const json::Value* hsp = r.doc.find("hsp");
    if (hsp == nullptr) bad_request("request requires hsp");
    if (!hsp->is_number() ||
        hsp->as_number() != double(kProtocolVersion)) {
      throw RequestError{errc::kUnsupportedVersion,
                         "this server speaks hsp version " +
                             std::to_string(kProtocolVersion)};
    }

    const json::Value* op = r.doc.find("op");
    if (op == nullptr || !op->is_string())
      bad_request("request requires a string op");

    r.snap = snapshot();
    r.fingerprint = r.snap->fingerprint();
    const std::string& name = op->as_string();
    {
      const auto& ops = op_table();
      for (std::size_t i = 1; i < ops.size(); ++i)
        if (name == ops[i]) r.op = static_cast<std::uint16_t>(i);
    }
    if (r.op == kOpUnresolved)
      throw RequestError{errc::kUnknownOp, "unknown op: " + name};

    if (r.op == kOpEstimate) {
      const json::Value* n = r.doc.find("n");
      if (n == nullptr) bad_request("estimate requires n");
      const int size = require_int(*n, "n", 1 << 30);
      const json::Value* cfg = r.doc.find("config");
      if (cfg == nullptr) bad_request("estimate requires config");
      r.config = parse_config(*cfg, r.snap->estimator().spec());
      r.n = size;
      r.key = estimate_cache_key(*r.snap, r.config, size);
    } else if (r.op == kOpAdvise) {
      r.advise = parse_advise(r.doc);
      r.n = r.advise.n;
      r.key = advise_cache_key(*r.snap, r.advise);
    } else {
      return false;
    }
    if (cache_.lookup_with(r.key,
                           [&r](const std::string& cached) { r.ok(cached); })) {
      r.cache = 1;
      HETSCHED_COUNTER_ADD("server.cache_hits", 1);
      return true;
    }
    r.cache = 2;
    HETSCHED_COUNTER_ADD("server.cache_misses", 1);
    return false;
  } catch (const RequestError& e) {
    r.fail(e.code, e.message);
  } catch (const std::exception& e) {
    r.fail(errc::kInternal, e.what());
  }
  return true;
}

void Service::finish(Request& r) {
  const ModelSnapshot& snap = *r.snap;
  try {
    switch (r.op) {
      case kOpPing:
        r.ok("{}");
        return;
      case kOpHello:
        // Version negotiation: when the client offers a list, it must
        // contain a version we speak (the hsp field already matched).
        if (const json::Value* versions = r.doc.find("versions")) {
          if (!versions->is_array())
            bad_request("versions must be an array of numbers");
          bool supported = false;
          for (const auto& v : versions->as_array())
            supported = supported ||
                        (v.is_number() &&
                         v.as_number() == double(kProtocolVersion));
          if (!supported)
            throw RequestError{errc::kUnsupportedVersion,
                               "no offered version is supported"};
        }
        r.ok(hello_result(snap));
        return;
      case kOpEstimate: {
        const std::string result = estimate_result(snap, r.config, r.n);
        cache_.insert(r.key, result);
        r.ok(result);
        return;
      }
      case kOpAdvise: {
        HETSCHED_TRACE_SPAN("server", "advise_search");
        const std::string result = advise_result(snap, r.advise);
        cache_.insert(r.key, result);
        r.ok(result);
        return;
      }
      case kOpStats:
        r.ok(stats_result(snap));
        return;
      case kOpMetrics: {
        bool process_scope = true;
        if (const json::Value* scope = r.doc.find("scope")) {
          if (!scope->is_string() ||
              (scope->as_string() != "service" &&
               scope->as_string() != "process"))
            bad_request("scope must be \"service\" or \"process\"");
          process_scope = scope->as_string() == "process";
        }
        r.ok(metrics_result(snap, process_scope));
        return;
      }
      case kOpHealth:
        r.ok(health_result(snap));
        return;
      case kOpFlight: {
        std::size_t count = flight_.capacity();
        if (const json::Value* c = r.doc.find("count"))
          count = static_cast<std::size_t>(require_int(*c, "count", 1 << 20));
        r.ok(obs::flight::to_json(flight_, count, op_table(), code_table()));
        return;
      }
      case kOpObserve: {
        const json::Value* n = r.doc.find("n");
        if (n == nullptr) bad_request("observe requires n");
        const int size = require_int(*n, "n", 1 << 30);
        const json::Value* cfg = r.doc.find("config");
        if (cfg == nullptr) bad_request("observe requires config");
        const cluster::Config config =
            parse_config(*cfg, snap.estimator().spec());
        r.n = size;
        const json::Value* measured = r.doc.find("measured");
        if (measured == nullptr) bad_request("observe requires measured");
        if (!measured->is_number() || !(measured->as_number() > 0.0) ||
            !std::isfinite(measured->as_number()))
          bad_request("measured must be a positive finite number of seconds");
        const double t_measured = measured->as_number();
        if (!snap.estimator().covers(config))
          throw RequestError{errc::kUncovered,
                             "model set does not cover " + config.to_string()};
        const core::Estimator::Breakdown bd =
            snap.estimator().breakdown(config, size);
        r.ok(observe_result(config, size, bd, snap.fingerprint(), t_measured));
        return;
      }
      case kOpRefit:
        r.ok(refit_now());
        return;
      case kOpReload: {
        ReloadHandler handler;
        {
          std::lock_guard<std::mutex> l(reload_mu_);
          handler = reload_;
        }
        if (!handler)
          throw RequestError{errc::kUnavailable,
                             "server was started without a reload source"};
        std::shared_ptr<const ModelSnapshot> fresh = handler();
        if (fresh == nullptr)
          throw RequestError{errc::kUnavailable, "reload produced no model"};
        swap_snapshot(fresh);
        std::string out = "{\"swapped\":true,\"model_fingerprint\":";
        out += json_quote(hex_fingerprint(fresh->fingerprint()));
        out += '}';
        r.ok(out);
        return;
      }
      default:
        throw RequestError{errc::kInternal, "unresolved op reached finish"};
    }
  } catch (const RequestError& e) {
    r.fail(e.code, e.message);
  } catch (const std::exception& e) {
    r.fail(errc::kInternal, e.what());
  }
}

std::string Service::record(Request& r) {
  if (r.code != 0) {
    HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic");
    errors_.fetch_add(1, std::memory_order_relaxed);
    HETSCHED_COUNTER_ADD("server.errors", 1);
  }
  const std::uint64_t wall_us = clock_now_us() - r.arrival;
  op_wall_[r.op].record(static_cast<double>(wall_us) * 1e-6);
  flight_.record(r.op, r.code, r.cache, r.n, r.fingerprint, r.arrival,
                 wall_us);
  HETSCHED_COUNTER_ADD("server.flight.records", 1);
  return std::move(r.response);
}

std::string Service::handle_payload(const std::string& payload) {
  HETSCHED_TRACE_SPAN("server", "request");
  Request r;
  if (!start(payload, r)) finish(r);
  return record(r);
}

std::vector<std::string> Service::handle_batch(
    const std::vector<std::string>& payloads) {
  HETSCHED_HISTOGRAM_RECORD("server.batch_size", payloads.size());
  std::vector<std::string> responses(payloads.size());
  if (payloads.size() < kMinBatchForPool) {
    for (std::size_t i = 0; i < payloads.size(); ++i)
      responses[i] = handle_payload(payloads[i]);
    return responses;
  }
  HETSCHED_TRACE_SPAN("server", "batch");
  // Cache hits (and requests refused before their op runs) are answered
  // here, on the calling thread; the rest wait for the pool.
  std::vector<Request> open;
  std::vector<std::size_t> open_at;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    Request r;
    if (start(payloads[i], r)) {
      responses[i] = record(r);
    } else {
      open.push_back(std::move(r));
      open_at.push_back(i);
    }
  }
  const auto answer = [&](std::size_t k) {
    finish(open[k]);
    responses[open_at[k]] = record(open[k]);
  };
  if (open.size() < kMinBatchForPool) {
    for (std::size_t k = 0; k < open.size(); ++k) answer(k);
  } else {
    pool_.parallel_for(open.size(), answer);
  }
  return responses;
}

Service::Counters Service::counters() const {
  Counters c;
  HETSCHED_ATOMIC_DOC(relaxed, "statistics snapshot; the three counters "
                               "need not be mutually consistent");
  c.requests = requests_.load(std::memory_order_relaxed);
  HETSCHED_ATOMIC_DOC(relaxed, "statistics snapshot");
  c.errors = errors_.load(std::memory_order_relaxed);
  HETSCHED_ATOMIC_DOC(relaxed, "statistics snapshot");
  c.snapshot_swaps = swaps_.load(std::memory_order_relaxed);
  c.cache_hits = cache_.hits();
  c.cache_misses = cache_.misses();
  return c;
}

std::string Service::stats_result(const ModelSnapshot& snap) const {
  const Counters c = counters();
  std::string out = "{\"requests\":";
  out += json_int(static_cast<std::int64_t>(c.requests));
  out += ",\"errors\":";
  out += json_int(static_cast<std::int64_t>(c.errors));
  out += ",\"cache_hits\":";
  out += json_int(static_cast<std::int64_t>(c.cache_hits));
  out += ",\"cache_misses\":";
  out += json_int(static_cast<std::int64_t>(c.cache_misses));
  out += ",\"cache_entries\":";
  out += json_int(static_cast<std::int64_t>(cache_.size()));
  out += ",\"snapshot_swaps\":";
  out += json_int(static_cast<std::int64_t>(c.snapshot_swaps));
  out += ",\"model_fingerprint\":";
  out += json_quote(hex_fingerprint(snap.fingerprint()));
  out += ",\"warmed_sizes\":";
  out += json_int(static_cast<std::int64_t>(snap.warmed_sizes()));
  out += '}';
  return out;
}

std::string Service::metrics_result(const ModelSnapshot& snap,
                                    bool process_scope) const {
  std::string out = "{\"schema\":\"hetsched.metrics.v1\",\"scope\":";
  out += process_scope ? "\"process\"" : "\"service\"";
  out += ",\"stats\":";
  out += stats_result(snap);
  // Per-op wall-time quantiles from the always-on service histograms:
  // the currently-handled request records *after* it is answered, so a
  // metrics answer never includes itself.
  out += ",\"ops\":{";
  const auto& ops = op_table();
  bool first = true;
  for (std::size_t i = 0; i < kOpTableSize; ++i) {
    if (op_wall_[i].count() == 0) continue;
    if (!first) out += ',';
    first = false;
    out += json_quote(ops[i]);
    out += ':';
    out += obs::histogram_json(op_wall_[i].sample(), "_s");
  }
  out += '}';
  if (process_scope) {
    out += ",\"process\":";
    out += obs::registry_json(obs::snapshot());
  }
  out += '}';
  return out;
}

std::string Service::health_result(const ModelSnapshot& snap) const {
  const std::uint64_t now = clock_now_us();
  const Counters c = counters();
  HETSCHED_ATOMIC_DOC(relaxed, "advisory admission flag");
  const bool draining = draining_.load(std::memory_order_relaxed);
  // The ledger under the published model: every class that model priced.
  bool degraded = false;
  std::string classes;
  {
    std::lock_guard<std::mutex> l(obs_mu_);
    for (const std::string& key : obs_buf_.class_keys()) {
      const core::WindowStats w =
          core::window_stats(*obs_buf_.window(key), snap.fingerprint());
      if (w.count == 0) continue;
      const bool class_degraded =
          options_.refit.degraded(w.count, w.mean_abs_rel_err);
      degraded = degraded || class_degraded;
      if (!classes.empty()) classes += ',';
      classes += json_quote(key);
      classes += ":{\"count\":";
      classes += json_int(static_cast<std::int64_t>(w.count));
      classes += ",\"mean_rel_err\":";
      classes += json_number_or_null(w.mean_rel_err);
      classes += ",\"mean_abs_rel_err\":";
      classes += json_number_or_null(w.mean_abs_rel_err);
      classes += ",\"max_abs_rel_err\":";
      classes += json_number_or_null(w.max_abs_rel_err);
      classes += ",\"degraded\":";
      classes += class_degraded ? "true" : "false";
      classes += '}';
    }
  }
  std::string out = "{\"status\":";
  out += draining ? "\"draining\"" : degraded ? "\"degraded\"" : "\"ok\"";
  out += ",\"uptime_s\":";
  out += json_number(static_cast<double>(now - start_us_) * 1e-6);
  out += ",\"model_fingerprint\":";
  out += json_quote(hex_fingerprint(snap.fingerprint()));
  out += ",\"cluster_fingerprint\":";
  out += json_quote(snap.cluster_fingerprint());
  out += ",\"snapshot_age_s\":";
  HETSCHED_ATOMIC_DOC(relaxed, "freshness timestamp; an off-by-one-swap "
                               "age is acceptable in health output");
  out += json_number(
      static_cast<double>(now - published_us_.load(std::memory_order_relaxed)) *
      1e-6);
  out += ",\"snapshot_swaps\":";
  out += json_int(static_cast<std::int64_t>(c.snapshot_swaps));
  out += ",\"open_connections\":";
  HETSCHED_ATOMIC_DOC(relaxed, "connection gauge");
  out += json_int(open_connections_.load(std::memory_order_relaxed));
  out += ",\"draining\":";
  out += draining ? "true" : "false";
  out += ",\"cache\":{\"entries\":";
  out += json_int(static_cast<std::int64_t>(cache_.size()));
  out += ",\"capacity\":";
  out += json_int(static_cast<std::int64_t>(
      options_.cache_shards * options_.cache_max_entries_per_shard));
  out += ",\"hits\":";
  out += json_int(static_cast<std::int64_t>(c.cache_hits));
  out += ",\"misses\":";
  out += json_int(static_cast<std::int64_t>(c.cache_misses));
  out += ",\"hit_rate\":";
  const std::uint64_t probes = c.cache_hits + c.cache_misses;
  out += json_number(probes == 0 ? 0.0
                                 : static_cast<double>(c.cache_hits) /
                                       static_cast<double>(probes));
  out += "},\"flight\":{\"capacity\":";
  out += json_int(static_cast<std::int64_t>(flight_.capacity()));
  out += ",\"recorded\":";
  out += json_int(static_cast<std::int64_t>(flight_.total()));
  out += "},\"calib\":{\"threshold\":";
  out += json_number(options_.refit.drift_threshold);
  out += ",\"min_count\":";
  out += json_int(static_cast<std::int64_t>(options_.refit.drift_min_count));
  out += ",\"classes\":{";
  out += classes;
  out += "}}}";
  return out;
}

std::string Service::observe_result(const cluster::Config& config, int n,
                                    const core::Estimator::Breakdown& bd,
                                    std::uint64_t priced_by, double measured) {
  // The wire carries only the measured total; split it into computation
  // and communication by the prediction's own ratio — the best available
  // attribution, and exact in the limit where only the overall scale
  // drifted. The parts are clamped at zero first (DESIGN.md note 10): an
  // N-T bin's fitted polynomial can go negative, and a ratio outside
  // [0, 1] would hand the buffer a negative part.
  double pred_tai = 0.0;
  double pred_tci = 0.0;
  for (const auto& k : bd.kinds) {
    pred_tai += std::max(0.0, k.tai);
    pred_tci += std::max(0.0, k.tci);
  }
  const double denom = pred_tai + pred_tci;
  const double tai = (denom > 0.0 ? pred_tai / denom : 1.0) * measured;
  // The price drift detection and the ledger reuse while this model
  // stays published.
  core::Observation obs{config, n, tai, measured - tai, bd.total, priced_by};
  const std::string key = core::ObservationBuffer::class_key(config);
  core::WindowStats w;
  bool dropped = false;
  {
    std::lock_guard<std::mutex> l(obs_mu_);
    dropped = !obs_buf_.add(std::move(obs));
    if (!dropped) w = core::window_stats(*obs_buf_.window(key), priced_by);
  }
  const double rel = (bd.total - measured) / measured;
  if (dropped) {
    // Refused at the class cap: the sample's own error, nothing counted.
    w.mean_abs_rel_err = w.max_abs_rel_err = std::fabs(rel);
    HETSCHED_COUNTER_ADD("server.refit.dropped", 1);
  } else {
    HETSCHED_COUNTER_ADD("server.refit.observations", 1);
  }
  std::string out = "{\"family\":";
  out += json_quote(core::to_string(bd.provenance));
  out += ",\"predicted\":";
  out += json_number(bd.total);
  out += ",\"measured\":";
  out += json_number(measured);
  out += ",\"rel_err\":";
  out += json_number(rel);
  out += ",\"class\":";
  out += json_quote(key);
  out += ",\"count\":";
  out += json_int(static_cast<std::int64_t>(w.count));
  out += ",\"mean_abs_rel_err\":";
  out += json_number(w.mean_abs_rel_err);
  out += ",\"max_abs_rel_err\":";
  out += json_number(w.max_abs_rel_err);
  out += ",\"degraded\":";
  out += !dropped && options_.refit.degraded(w.count, w.mean_abs_rel_err)
             ? "true"
             : "false";
  out += ",\"dropped\":";
  out += dropped ? "true" : "false";
  out += '}';
  return out;
}

std::size_t Service::observation_count() const {
  std::lock_guard<std::mutex> l(obs_mu_);
  return obs_buf_.size();
}

core::ObservationBuffer Service::observations() const {
  std::lock_guard<std::mutex> l(obs_mu_);
  return obs_buf_;
}

std::string Service::refit_now() {
  const std::shared_ptr<const ModelSnapshot> snap = snapshot();
  const core::ObservationBuffer buf = observations();
  const core::RefitEngine engine(options_.refit);
  // Observations the published model priced keep their observe-time
  // price; only those another model priced are estimated again.
  RefitPass pass = refit_pass(
      *snap, engine, buf,
      engine.detect_drift(snap->estimator(), buf, snap->fingerprint()));
  HETSCHED_COUNTER_ADD("server.refit.attempts", 1);
  HETSCHED_COUNTER_ADD("server.refit.accepted",
                       static_cast<std::int64_t>(pass.accepted));
  if (pass.publish != nullptr) {
    swap_snapshot(std::move(pass.publish));
    HETSCHED_COUNTER_ADD("server.refit.swaps", 1);
  }
  return pass.document;
}

RefitPass refit_pass(const ModelSnapshot& snap,
                     const core::RefitEngine& engine,
                     const core::ObservationBuffer& buf,
                     const core::DriftReport& drift) {
  core::RefitReport report = engine.refit(snap.estimator(), buf);
  RefitPass pass;
  pass.accepted = report.accepted;

  // Drift downgrades apply to classes this round did NOT successfully
  // refit (the evidence indicts the old model; an accepted refit already
  // replaced it) and that are not already marked drifted (republishing
  // an identical snapshot every pass would churn the snapshot slot).
  core::DriftReport stale;
  for (const core::DriftClass& dc : drift.classes) {
    bool accepted = false;
    for (const core::ClassRefit& cr : report.classes)
      accepted = accepted || (cr.key == dc.key && cr.action == "accepted");
    if (accepted) continue;
    const core::Estimator& inc = snap.estimator();
    const core::Provenance current =
        dc.is_nt ? inc.nt_provenance(core::NtKey{dc.kind, dc.pe_counts.empty()
                                                              ? 1
                                                              : dc.pe_counts[0],
                                                 dc.m})
                 : inc.pt_provenance(dc.kind, dc.m);
    if (current == core::Provenance::kDrifted) continue;
    stale.classes.push_back(dc);
  }

  bool swapped = false;
  std::uint64_t fingerprint = snap.fingerprint();
  if (report.accepted > 0 || !stale.classes.empty()) {
    core::Estimator next = std::move(report.model).value_or(snap.estimator());
    core::apply_drift(next, stale);
    // A refit never changes the cluster spec.
    auto fresh = std::make_shared<const ModelSnapshot>(
        std::move(next), snap.space(), snap.cluster_fingerprint());
    // Publish only when something actually changed: a refit that
    // reproduces the incumbent's coefficients bit-for-bit (steady state
    // under an unchanged window) must not churn the snapshot every
    // pass. Drift downgrades are
    // provenance-only (invisible to the content fingerprint) and always
    // publish — the already-kDrifted filter above bounds that churn.
    if (fresh->fingerprint() != snap.fingerprint() ||
        !stale.classes.empty()) {
      fingerprint = fresh->fingerprint();
      pass.publish = std::move(fresh);
      swapped = true;
    }
  }

  std::string out = "{\"classes\":[";
  for (std::size_t i = 0; i < report.classes.size(); ++i) {
    const core::ClassRefit& cr = report.classes[i];
    if (i) out += ',';
    out += "{\"class\":";
    out += json_quote(cr.key);
    out += ",\"action\":";
    out += json_quote(cr.action);
    out += ",\"reason\":";
    out += json_quote(cr.reason);
    out += ",\"samples\":";
    out += json_int(static_cast<std::int64_t>(cr.samples));
    out += ",\"distinct_n\":";
    out += json_int(static_cast<std::int64_t>(cr.distinct_n));
    out += ",\"incumbent_err\":";
    out += json_number(cr.incumbent_err);
    out += ",\"candidate_err\":";
    out += json_number(cr.candidate_err);
    out += '}';
  }
  out += "],\"accepted\":";
  out += json_int(static_cast<std::int64_t>(report.accepted));
  out += ",\"drifted\":[";
  for (std::size_t i = 0; i < drift.classes.size(); ++i) {
    const core::DriftClass& dc = drift.classes[i];
    if (i) out += ',';
    out += "{\"class\":";
    out += json_quote(dc.key);
    out += ",\"count\":";
    out += json_int(static_cast<std::int64_t>(dc.count));
    out += ",\"mean_abs_rel_err\":";
    out += json_number(dc.mean_abs_rel_err);
    out += ",\"ns\":[";
    for (std::size_t j = 0; j < dc.ns.size(); ++j) {
      if (j) out += ',';
      out += json_int(dc.ns[j]);
    }
    out += "],\"pe_counts\":[";
    for (std::size_t j = 0; j < dc.pe_counts.size(); ++j) {
      if (j) out += ',';
      out += json_int(dc.pe_counts[j]);
    }
    out += "]}";
  }
  out += "],\"swapped\":";
  out += swapped ? "true" : "false";
  out += ",\"model_fingerprint\":";
  out += json_quote(hex_fingerprint(fingerprint));
  out += '}';
  pass.document = std::move(out);
  return pass;
}

std::string Service::flight_json(std::size_t max_records) const {
  return obs::flight::to_json(flight_, max_records, op_table(), code_table());
}

std::string Service::metrics_json() const {
  const std::shared_ptr<const ModelSnapshot> snap = snapshot();
  return metrics_result(*snap, /*process_scope=*/true);
}

std::string Service::health_json() const {
  const std::shared_ptr<const ModelSnapshot> snap = snapshot();
  return health_result(*snap);
}

}  // namespace hetsched::server
