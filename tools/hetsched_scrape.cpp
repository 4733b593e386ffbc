// hetsched_scrape — exposition sidecar for hetsched_advisord.
//
//   hetsched_scrape --connect=ADDR [--out=FILE]
//   hetsched_scrape --connect=ADDR --flight[=COUNT] [--out=FILE]
//   hetsched_scrape --connect=ADDR --probe-health=N [--health-slo-ms=X]
//   hetsched_scrape --check=FILE
//
// Speaks hsp/1 to a running daemon (ADDR is unix:PATH or HOST:PORT,
// like every other client in this repo) and renders:
//
//  * default: the `metrics` + `health` ops as Prometheus text
//    exposition format (version 0.0.4) — point any standard collector
//    at a cron/sidecar invocation of this tool and the daemon needs no
//    HTTP server of its own.
//  * --flight[=COUNT]: the `flight` op as a Chrome-trace fragment
//    ({"traceEvents":[...]}, complete events with ts/dur in µs) —
//    loadable as-is in Perfetto/chrome://tracing to see the last
//    COUNT requests on a timeline.
//  * --probe-health=N: N `health` round-trips, reporting p50/p99 via
//    the same obs::FineHistogram the server uses; with
//    --health-slo-ms=X the exit status enforces p99 <= X.
//  * --check=FILE: validates a Prometheus exposition file (UTF-8,
//    name/type syntax, TYPE-before-sample, no duplicate series,
//    histogram buckets cumulative up to a +Inf bucket equal to
//    _count) — the CI smoke test runs it on this tool's own output.
//
// Exit status: 0 ok, 1 scrape/validation failure, 2 usage.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/fine_hist.hpp"
#include "obs/json.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"

using namespace hetsched;
namespace json = hetsched::obs::json;

namespace {

int usage() {
  std::cerr << "usage: hetsched_scrape --connect=ADDR [--out=FILE] "
               "[--flight[=COUNT]] [--probe-health=N] [--health-slo-ms=X]\n"
               "       hetsched_scrape --check=FILE\n";
  return 2;
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "hetsched_scrape: " << message << "\n";
  std::exit(1);
}

/// One hsp/1 round trip; returns the `result` document or fails.
json::Value roundtrip_op(server::Client& client, const std::string& request) {
  const std::string response = client.roundtrip(request);
  const json::Value doc = json::parse(response);
  const json::Value* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
    fail("server answered an error: " + response);
  const json::Value* result = doc.find("result");
  if (result == nullptr) fail("response carries no result: " + response);
  return *result;  // cheap: arrays/objects are shared_ptr-backed
}

// -- Prometheus rendering ---------------------------------------------------

/// Dotted metric name -> exposition name: "server.cache_hits" becomes
/// "hetsched_server_cache_hits".
std::string mangle(const std::string& name) {
  std::string out = "hetsched_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_escape_label(const std::string& v) {
  std::string out;
  for (const char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return server::json_number(v);
}

class PromWriter {
 public:
  void type(const std::string& name, const char* kind) {
    out_ << "# TYPE " << name << ' ' << kind << '\n';
  }
  void sample(const std::string& name, const std::string& labels, double v) {
    out_ << name;
    if (!labels.empty()) out_ << '{' << labels << '}';
    out_ << ' ' << prom_number(v) << '\n';
  }
  /// Renders one of our JSON histogram objects ({"count","sum"|"sum_s",
  /// "bins":[[lo,hi,c],...]}) as a cumulative-bucket histogram series.
  void histogram(const std::string& name, const std::string& labels,
                 const json::Value& h, const char* sum_key) {
    const json::Value* bins = h.find("bins");
    const json::Value* count = h.find("count");
    const json::Value* sum = h.find(sum_key);
    if (bins == nullptr || !bins->is_array() || count == nullptr ||
        sum == nullptr)
      fail("malformed histogram object for " + name);
    const std::string sep = labels.empty() ? "" : ",";
    double cumulative = 0.0;
    for (const auto& bin : bins->as_array()) {
      if (!bin.is_array() || bin.as_array().size() != 3)
        fail("malformed histogram bin for " + name);
      const json::Value& upper = bin.as_array()[1];
      cumulative += bin.as_array()[2].as_number();
      if (!upper.is_number()) continue;  // overflow bin folds into +Inf
      sample(name + "_bucket",
             labels + sep + "le=\"" + prom_number(upper.as_number()) + "\"",
             cumulative);
    }
    sample(name + "_bucket", labels + sep + "le=\"+Inf\"",
           count->as_number());
    sample(name + "_sum", labels, sum->as_number());
    sample(name + "_count", labels, count->as_number());
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

const json::Value& member(const json::Value& doc, const char* name) {
  const json::Value* v = doc.find(name);
  if (v == nullptr) fail(std::string("missing member: ") + name);
  return *v;
}

/// The full exposition document from one `metrics` + one `health`
/// answer. Series names are chosen to never collide: service-local
/// stats are hetsched_service_*, registry metrics keep their dotted
/// name mangled, per-op latencies are the labeled
/// hetsched_server_op_wall_seconds family, health is hetsched_health_*.
std::string render_prometheus(const json::Value& metrics,
                              const json::Value& health) {
  PromWriter w;

  // Service stats (always present, both obs legs).
  const json::Value& stats = member(metrics, "stats");
  static const struct {
    const char* key;
    const char* kind;
  } kStats[] = {
      {"requests", "counter"},      {"errors", "counter"},
      {"cache_hits", "counter"},    {"cache_misses", "counter"},
      {"cache_entries", "gauge"},   {"snapshot_swaps", "counter"},
      {"warmed_sizes", "gauge"},
  };
  for (const auto& s : kStats) {
    const std::string name = std::string("hetsched_service_") + s.key;
    w.type(name, s.kind);
    w.sample(name, "", member(stats, s.key).as_number());
  }

  // Per-op wall-time histograms + quantile gauges.
  const json::Value& ops = member(metrics, "ops");
  if (!ops.as_object().empty()) {
    w.type("hetsched_server_op_wall_seconds", "histogram");
    for (const auto& [op, h] : ops.as_object())
      w.histogram("hetsched_server_op_wall_seconds",
                  "op=\"" + prom_escape_label(op) + "\"", h, "sum_s");
    w.type("hetsched_server_op_p50_seconds", "gauge");
    w.type("hetsched_server_op_p99_seconds", "gauge");
    for (const auto& [op, h] : ops.as_object()) {
      const std::string labels = "op=\"" + prom_escape_label(op) + "\"";
      w.sample("hetsched_server_op_p50_seconds", labels,
               member(h, "p50_s").as_number());
      w.sample("hetsched_server_op_p99_seconds", labels,
               member(h, "p99_s").as_number());
    }
  }

  // Whole-registry snapshot (empty maps when HETSCHED_OBS=OFF).
  if (const json::Value* process = metrics.find("process")) {
    for (const auto& [name, v] : member(*process, "counters").as_object()) {
      const std::string prom = mangle(name);
      w.type(prom, "counter");
      w.sample(prom, "", v.as_number());
    }
    for (const auto& [name, v] : member(*process, "gauges").as_object()) {
      if (!v.is_number()) continue;  // null = non-finite gauge
      const std::string prom = mangle(name);
      w.type(prom, "gauge");
      w.sample(prom, "", v.as_number());
    }
    for (const auto& [name, h] :
         member(*process, "histograms").as_object()) {
      const std::string prom = mangle(name);
      w.type(prom, "histogram");
      w.histogram(prom, "", h, "sum");
    }
  }

  // Health.
  const std::string status = member(health, "status").as_string();
  w.type("hetsched_up", "gauge");
  w.sample("hetsched_up", "", 1.0);
  w.type("hetsched_health_degraded", "gauge");
  w.sample("hetsched_health_degraded", "", status == "degraded" ? 1.0 : 0.0);
  w.type("hetsched_health_draining", "gauge");
  w.sample("hetsched_health_draining", "",
           member(health, "draining").as_bool() ? 1.0 : 0.0);
  w.type("hetsched_uptime_seconds", "gauge");
  w.sample("hetsched_uptime_seconds", "",
           member(health, "uptime_s").as_number());
  w.type("hetsched_snapshot_age_seconds", "gauge");
  w.sample("hetsched_snapshot_age_seconds", "",
           member(health, "snapshot_age_s").as_number());
  w.type("hetsched_open_connections", "gauge");
  w.sample("hetsched_open_connections", "",
           member(health, "open_connections").as_number());
  const json::Value& cache = member(health, "cache");
  w.type("hetsched_cache_hit_ratio", "gauge");
  w.sample("hetsched_cache_hit_ratio", "",
           member(cache, "hit_rate").as_number());
  const json::Value& flight = member(health, "flight");
  w.type("hetsched_flight_recorded", "counter");
  w.sample("hetsched_flight_recorded", "",
           member(flight, "recorded").as_number());
  w.type("hetsched_model_info", "gauge");
  w.sample("hetsched_model_info",
           "model_fingerprint=\"" +
               prom_escape_label(
                   member(health, "model_fingerprint").as_string()) +
               "\",cluster_fingerprint=\"" +
               prom_escape_label(
                   member(health, "cluster_fingerprint").as_string()) +
               "\"",
           1.0);
  // Calibration ledger: one series per class window the published
  // model priced. A window's count falls as it slides and drops to 0
  // when the model changes, so it is a gauge.
  const json::Value& calib = member(health, "calib");
  const json::Value& classes = member(calib, "classes");
  if (!classes.as_object().empty()) {
    w.type("hetsched_calib_observations", "gauge");
    w.type("hetsched_calib_mean_abs_rel_err", "gauge");
    w.type("hetsched_calib_max_abs_rel_err", "gauge");
    w.type("hetsched_calib_class_degraded", "gauge");
    for (const auto& [key, c] : classes.as_object()) {
      const std::string labels = "class=\"" + prom_escape_label(key) + "\"";
      w.sample("hetsched_calib_observations", labels,
               member(c, "count").as_number());
      w.sample("hetsched_calib_mean_abs_rel_err", labels,
               member(c, "mean_abs_rel_err").as_number());
      w.sample("hetsched_calib_max_abs_rel_err", labels,
               member(c, "max_abs_rel_err").as_number());
      w.sample("hetsched_calib_class_degraded", labels,
               member(c, "degraded").as_bool() ? 1.0 : 0.0);
    }
  }
  return w.str();
}

// -- Chrome-trace rendering of a flight dump --------------------------------

std::string render_flight_trace(const json::Value& flight) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& rec : member(flight, "records").as_array()) {
    if (!first) out += ',';
    first = false;
    const std::string op = member(rec, "op").as_string();
    const std::string error = member(rec, "error").as_string();
    out += "{\"name\":";
    out += server::json_quote(error.empty() ? op : op + " [" + error + "]");
    out += ",\"cat\":\"server\",\"ph\":\"X\",\"ts\":";
    out += server::json_number(member(rec, "arrival_us").as_number());
    out += ",\"dur\":";
    out += server::json_number(member(rec, "wall_us").as_number());
    out += ",\"pid\":1,\"tid\":1,\"args\":{\"seq\":";
    out += server::json_number(member(rec, "seq").as_number());
    out += ",\"n\":";
    out += server::json_number(member(rec, "n").as_number());
    out += ",\"cache\":";
    out += server::json_quote(member(rec, "cache").as_string());
    out += ",\"fingerprint\":";
    out += server::json_quote(member(rec, "fingerprint").as_string());
    out += ",\"error\":";
    out += server::json_quote(error);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

// -- exposition-format checker ----------------------------------------------

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

bool valid_label_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

bool valid_utf8(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const auto b = static_cast<unsigned char>(text[i]);
    std::size_t len = 0;
    if (b < 0x80)
      len = 1;
    else if ((b & 0xe0) == 0xc0)
      len = 2;
    else if ((b & 0xf0) == 0xe0)
      len = 3;
    else if ((b & 0xf8) == 0xf0)
      len = 4;
    else
      return false;
    if (i + len > text.size()) return false;
    for (std::size_t k = 1; k < len; ++k)
      if ((static_cast<unsigned char>(text[i + k]) & 0xc0) != 0x80)
        return false;
    i += len;
  }
  return true;
}

/// Validates one exposition file. Prints every problem; returns the
/// number of problems found.
int check_exposition(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "hetsched_scrape: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  int problems = 0;
  auto problem = [&](std::size_t line_no, const std::string& what) {
    std::cerr << path << ':' << line_no << ": " << what << "\n";
    ++problems;
  };

  if (!valid_utf8(text)) problem(0, "file is not valid UTF-8");

  std::map<std::string, std::string> types;  // metric name -> type
  std::set<std::string> typed_with_samples;
  std::set<std::string> series_seen;  // name + canonical sorted labels
  // Per histogram series (name + labels but `le`): the last bucket's le
  // and count, the line of its +Inf bucket, and its _count.
  struct Buckets {
    double le = -HUGE_VAL, count = -HUGE_VAL, total = NAN;
    std::size_t inf_line = 0;
  };
  std::map<std::string, Buckets> histograms;

  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name, rest;
      ls >> hash >> kind >> name;
      if (kind == "TYPE") {
        ls >> rest;
        static const std::set<std::string> kKinds = {
            "counter", "gauge", "histogram", "summary", "untyped"};
        if (!valid_metric_name(name))
          problem(line_no, "bad metric name in TYPE: " + name);
        if (!kKinds.count(rest))
          problem(line_no, "unknown TYPE kind: " + rest);
        if (types.count(name))
          problem(line_no, "duplicate TYPE for " + name);
        if (typed_with_samples.count(name))
          problem(line_no, "TYPE after samples of " + name);
        types[name] = rest;
      }
      // HELP and other comments are free-form.
      continue;
    }
    // Sample line: name[{labels}] value [timestamp]
    std::size_t at = 0;
    while (at < line.size() && line[at] != '{' && line[at] != ' ') ++at;
    const std::string name = line.substr(0, at);
    if (!valid_metric_name(name)) {
      problem(line_no, "bad metric name: " + name);
      continue;
    }
    std::vector<std::string> labels;
    if (at < line.size() && line[at] == '{') {
      ++at;
      while (at < line.size() && line[at] != '}') {
        std::size_t eq = line.find('=', at);
        if (eq == std::string::npos) break;
        const std::string lname = line.substr(at, eq - at);
        if (!valid_label_name(lname))
          problem(line_no, "bad label name: " + lname);
        if (eq + 1 >= line.size() || line[eq + 1] != '"') {
          problem(line_no, "label value must be quoted");
          break;
        }
        std::size_t end = eq + 2;
        std::string value;
        while (end < line.size() && line[end] != '"') {
          if (line[end] == '\\' && end + 1 < line.size()) ++end;
          value += line[end];
          ++end;
        }
        if (end >= line.size()) {
          problem(line_no, "unterminated label value");
          break;
        }
        labels.push_back(lname + "=" + value);
        at = end + 1;
        if (at < line.size() && line[at] == ',') ++at;
      }
      if (at >= line.size() || line[at] != '}') {
        problem(line_no, "unterminated label set");
        continue;
      }
      ++at;
    }
    while (at < line.size() && line[at] == ' ') ++at;
    std::istringstream vs(line.substr(at));
    std::string value_token;
    vs >> value_token;
    if (value_token.empty()) {
      problem(line_no, "sample has no value");
      continue;
    }
    double value = NAN;  // stod also reads +Inf, -Inf and NaN
    try {
      std::size_t used = 0;
      value = std::stod(value_token, &used);
      if (used != value_token.size()) throw std::invalid_argument(value_token);
    } catch (const std::exception&) {
      problem(line_no, "unparseable sample value: " + value_token);
    }
    // TYPE-before-use: histogram/summary series use suffixed names.
    std::string base = name;
    for (const char* suffix : {"_bucket", "_sum", "_count", "_total"}) {
      const std::string s = suffix;
      if (base.size() > s.size() &&
          base.compare(base.size() - s.size(), s.size(), s) == 0) {
        const std::string stripped = base.substr(0, base.size() - s.size());
        if (types.count(stripped)) {
          base = stripped;
          break;
        }
      }
    }
    if (!types.count(base))
      problem(line_no, "sample without a preceding TYPE: " + name);
    else
      typed_with_samples.insert(base);
    std::string key = name;
    std::sort(labels.begin(), labels.end());
    for (const auto& l : labels) {
      key += '|';
      key += l;
    }
    if (!series_seen.insert(key).second)
      problem(line_no, "duplicate series: " + key);
    const auto type = types.find(base);
    if (type == types.end() || type->second != "histogram") continue;
    std::string series = base, le;
    for (const auto& l : labels)
      if (l.rfind("le=", 0) == 0)
        le = l.substr(3);
      else
        series += '|' + l;
    Buckets& h = histograms[series];
    if (name == base + "_count") h.total = value;
    if (name != base + "_bucket") continue;
    const double bound = le == "+Inf" ? HUGE_VAL : std::atof(le.c_str());
    if (!(bound > h.le) || value < h.count)
      problem(line_no, "buckets must rise in le and count: " + key);
    h.le = bound;
    h.count = value;
    if (le == "+Inf") h.inf_line = line_no;
  }
  for (const auto& [series, h] : histograms)
    if (h.inf_line == 0 || h.count != h.total)
      problem(h.inf_line, "+Inf bucket missing or unequal to _count: " + series);
  if (problems == 0)
    std::cout << "hetsched_scrape: " << path << " ok — "
              << series_seen.size() << " series, " << types.size()
              << " metric families\n";
  return problems;
}

void write_output(const std::string& out_path, const std::string& text) {
  if (out_path.empty()) {
    std::cout << text;
    return;
  }
  std::ofstream out(out_path);
  if (!out) fail("cannot write " + out_path);
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect, out_path, check_path;
  bool flight_mode = false;
  int flight_count = 0;  // 0 = server default (full ring)
  int probe = 0;
  double slo_ms = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0)
      connect = arg.substr(10);
    else if (arg.rfind("--out=", 0) == 0)
      out_path = arg.substr(6);
    else if (arg.rfind("--check=", 0) == 0)
      check_path = arg.substr(8);
    else if (arg == "--flight")
      flight_mode = true;
    else if (arg.rfind("--flight=", 0) == 0) {
      flight_mode = true;
      flight_count = std::atoi(arg.c_str() + 9);
      if (flight_count < 1) return usage();
    } else if (arg.rfind("--probe-health=", 0) == 0) {
      probe = std::atoi(arg.c_str() + 15);
      if (probe < 1) return usage();
    } else if (arg.rfind("--health-slo-ms=", 0) == 0) {
      slo_ms = std::atof(arg.c_str() + 16);
    } else {
      return usage();
    }
  }

  if (!check_path.empty()) return check_exposition(check_path) == 0 ? 0 : 1;
  if (connect.empty()) return usage();

  try {
    server::Client client(connect);

    if (probe > 0) {
      obs::FineHistogram hist;
      for (int i = 0; i < probe; ++i) {
        const auto start = std::chrono::steady_clock::now();
        (void)roundtrip_op(client,
                           "{\"hsp\":1,\"id\":\"probe\",\"op\":\"health\"}");
        hist.record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
      }
      const double p50_ms = hist.quantile(0.5) * 1e3;
      const double p99_ms = hist.quantile(0.99) * 1e3;
      std::cout << "hetsched_scrape: health probe n=" << probe
                << " p50_ms=" << p50_ms << " p99_ms=" << p99_ms << "\n";
      if (slo_ms > 0.0 && p99_ms > slo_ms) {
        std::cerr << "hetsched_scrape: health p99 " << p99_ms
                  << " ms exceeds SLO " << slo_ms << " ms\n";
        return 1;
      }
      return 0;
    }

    if (flight_mode) {
      std::string req = "{\"hsp\":1,\"id\":\"scrape\",\"op\":\"flight\"";
      if (flight_count > 0)
        req += ",\"count\":" + std::to_string(flight_count);
      req += "}";
      const json::Value flight = roundtrip_op(client, req);
      write_output(out_path, render_flight_trace(flight) + "\n");
      return 0;
    }

    const json::Value metrics = roundtrip_op(
        client, "{\"hsp\":1,\"id\":\"scrape\",\"op\":\"metrics\"}");
    const json::Value health = roundtrip_op(
        client, "{\"hsp\":1,\"id\":\"scrape\",\"op\":\"health\"}");
    write_output(out_path, render_prometheus(metrics, health));
  } catch (const std::exception& e) {
    fail(e.what());
  }
  return 0;
}
