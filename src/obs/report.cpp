#include "obs/report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

namespace hetsched::obs::report {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// -- JSON writing helpers ---------------------------------------------------
// Tokens come from the canonical encoder (obs/json.hpp), so
// serialize -> parse -> serialize is a fixed point. The layout keeps one
// record per line so committed baselines diff readably.

using json::json_quote;

/// JSON has no inf/nan; the report writes them as 0.
std::string finite_number(double v) {
  return json::json_number(std::isfinite(v) ? v : 0.0);
}

void append_stats(std::string& out, const AccuracyStats& st) {
  out += "{\"count\": ";
  out += std::to_string(st.count);
  out += ", \"mean_rel_err\": ";
  out += finite_number(st.mean_rel_err);
  out += ", \"mean_abs_rel_err\": ";
  out += finite_number(st.mean_abs_rel_err);
  out += ", \"max_abs_rel_err\": ";
  out += finite_number(st.max_abs_rel_err);
  out += ", \"pearson_r\": ";
  out += finite_number(st.pearson_r);
  out += ", \"hist\": [";
  for (std::size_t i = 0; i < st.hist.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(st.hist[i]);
  }
  out += "]}";
}

// -- JSON reading helpers ---------------------------------------------------

[[noreturn]] void bad(const std::string& where, const std::string& what) {
  throw SchemaError("report: " + where + ": " + what);
}

const json::Object& expect_object(const json::Value& v,
                                  const std::string& where) {
  if (!v.is_object()) bad(where, "expected an object");
  return v.as_object();
}

const json::Value& expect_member(const json::Object& obj, const char* key,
                                 const std::string& where) {
  auto it = obj.find(key);
  if (it == obj.end()) bad(where, std::string("missing \"") + key + "\"");
  return it->second;
}

std::string expect_string(const json::Object& obj, const char* key,
                          const std::string& where) {
  const json::Value& v = expect_member(obj, key, where);
  if (!v.is_string()) bad(where, std::string("\"") + key + "\" not a string");
  return v.as_string();
}

double expect_number(const json::Object& obj, const char* key,
                     const std::string& where) {
  const json::Value& v = expect_member(obj, key, where);
  if (!v.is_number()) bad(where, std::string("\"") + key + "\" not a number");
  return v.as_number();
}

bool expect_bool(const json::Object& obj, const char* key,
                 const std::string& where) {
  const json::Value& v = expect_member(obj, key, where);
  if (!v.is_bool()) bad(where, std::string("\"") + key + "\" not a bool");
  return v.as_bool();
}

AccuracyStats parse_stats(const json::Value& v, const std::string& where) {
  const json::Object& obj = expect_object(v, where);
  AccuracyStats st;
  const double count = expect_number(obj, "count", where);
  if (count < 0 || count != std::floor(count))
    bad(where, "\"count\" not a non-negative integer");
  st.count = static_cast<std::uint64_t>(count);
  st.mean_rel_err = expect_number(obj, "mean_rel_err", where);
  st.mean_abs_rel_err = expect_number(obj, "mean_abs_rel_err", where);
  st.max_abs_rel_err = expect_number(obj, "max_abs_rel_err", where);
  st.pearson_r = expect_number(obj, "pearson_r", where);
  const json::Value& hist = expect_member(obj, "hist", where);
  if (!hist.is_array() || hist.as_array().size() != kHistBins)
    bad(where, "\"hist\" not an array of " + std::to_string(kHistBins) +
                   " counts");
  for (std::size_t i = 0; i < kHistBins; ++i) {
    const json::Value& b = hist.as_array()[i];
    if (!b.is_number() || b.as_number() < 0)
      bad(where, "\"hist\" entries must be non-negative numbers");
    st.hist[i] = static_cast<std::uint64_t>(b.as_number());
  }
  return st;
}

}  // namespace

// -- records and aggregation ------------------------------------------------

double PredictionRecord::rel_err() const {
  if (measured == 0) return 0;
  return (predicted - measured) / measured;
}

std::size_t hist_bin(double abs_rel_err) {
  for (std::size_t i = 0; i < kHistEdges.size(); ++i)
    if (abs_rel_err < kHistEdges[i]) return i;
  return kHistBins - 1;
}

AccuracyStats aggregate(const std::vector<const PredictionRecord*>& recs) {
  AccuracyStats st;
  st.count = recs.size();
  if (recs.empty()) return st;

  double sum_e = 0, sum_abs = 0;
  for (const PredictionRecord* r : recs) {
    const double e = r->rel_err();
    sum_e += e;
    sum_abs += std::abs(e);
    st.max_abs_rel_err = std::max(st.max_abs_rel_err, std::abs(e));
    ++st.hist[hist_bin(std::abs(e))];
  }
  const double n = static_cast<double>(recs.size());
  st.mean_rel_err = sum_e / n;
  st.mean_abs_rel_err = sum_abs / n;

  if (recs.size() >= 2) {
    double mx = 0, my = 0;
    for (const PredictionRecord* r : recs) {
      mx += r->predicted;
      my += r->measured;
    }
    mx /= n;
    my /= n;
    double sxy = 0, sxx = 0, syy = 0;
    for (const PredictionRecord* r : recs) {
      const double dx = r->predicted - mx, dy = r->measured - my;
      sxy += dx * dy;
      sxx += dx * dx;
      syy += dy * dy;
    }
    if (sxx > 0 && syy > 0) st.pearson_r = sxy / std::sqrt(sxx * syy);
  }
  return st;
}

// -- RunReport --------------------------------------------------------------

void RunReport::recompute_accuracy() {
  accuracy.clear();
  std::map<std::string, std::vector<const PredictionRecord*>> by_family;
  std::map<std::pair<std::string, std::string>,
           std::vector<const PredictionRecord*>>
      by_bin, by_prov;
  for (const PredictionRecord& r : records) {
    by_family[r.family].push_back(&r);
    by_bin[{r.family, r.bin}].push_back(&r);
    by_prov[{r.family, r.provenance}].push_back(&r);
  }
  for (const auto& [family, recs] : by_family)
    accuracy[family].all = aggregate(recs);
  for (const auto& [key, recs] : by_bin)
    accuracy[key.first].bins[key.second] = aggregate(recs);
  for (const auto& [key, recs] : by_prov)
    accuracy[key.first].provenance[key.second] = aggregate(recs);
}

void RunReport::write_json(std::ostream& os) const {
  std::string out;
  out.reserve(256 + records.size() * 220);
  out += "{\"schema\": ";
  out += json_quote(kSchema);
  out += ",\n \"name\": ";
  out += json_quote(name);
  out += ",\n \"hist_edges\": [";
  for (std::size_t i = 0; i < kHistEdges.size(); ++i) {
    if (i) out += ", ";
    out += finite_number(kHistEdges[i]);
  }
  out += "],\n \"records\": [";
  bool first = true;
  for (const PredictionRecord& r : records) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"family\": ";
    out += json_quote(r.family);
    out += ", \"bench\": ";
    out += json_quote(r.bench);
    out += ", \"config\": ";
    out += json_quote(r.config);
    out += ", \"n\": ";
    out += std::to_string(r.n);
    out += ", \"bin\": ";
    out += json_quote(r.bin);
    out += ", \"provenance\": ";
    out += json_quote(r.provenance);
    out += ", \"adjusted\": ";
    out += r.adjusted ? "true" : "false";
    out += ", \"tai\": ";
    out += finite_number(r.tai);
    out += ", \"tci\": ";
    out += finite_number(r.tci);
    out += ", \"predicted\": ";
    out += finite_number(r.predicted);
    out += ", \"measured\": ";
    out += finite_number(r.measured);
    out += "}";
  }
  out += "],\n \"scalars\": {";
  first = true;
  for (const auto& [key, value] : scalars) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += json_quote(key);
    out += ": ";
    out += finite_number(value);
  }
  out += "},\n \"accuracy\": {";
  first = true;
  for (const auto& [family, fam] : accuracy) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += json_quote(family);
    out += ": {\"all\": ";
    append_stats(out, fam.all);
    out += ", \"bins\": {";
    bool bfirst = true;
    for (const auto& [bin, st] : fam.bins) {
      if (!bfirst) out += ", ";
      bfirst = false;
      out += json_quote(bin);
      out += ": ";
      append_stats(out, st);
    }
    out += "}, \"provenance\": {";
    bfirst = true;
    for (const auto& [prov, st] : fam.provenance) {
      if (!bfirst) out += ", ";
      bfirst = false;
      out += json_quote(prov);
      out += ": ";
      append_stats(out, st);
    }
    out += "}}";
  }
  out += "}}\n";
  os << out;
}

RunReport RunReport::from_json(const json::Value& doc) {
  const json::Object& root = expect_object(doc, "root");
  const std::string schema = expect_string(root, "schema", "root");
  if (schema != kSchema)
    bad("root", "schema \"" + schema + "\" is not \"" + kSchema + "\"");

  RunReport rep;
  rep.name = expect_string(root, "name", "root");

  const json::Value& edges = expect_member(root, "hist_edges", "root");
  if (!edges.is_array() || edges.as_array().size() != kHistEdges.size())
    bad("root", "\"hist_edges\" does not match the v1 edge list");
  for (std::size_t i = 0; i < kHistEdges.size(); ++i) {
    const json::Value& e = edges.as_array()[i];
    if (!e.is_number() || e.as_number() != kHistEdges[i])
      bad("root", "\"hist_edges\" does not match the v1 edge list");
  }

  const json::Value& records = expect_member(root, "records", "root");
  if (!records.is_array()) bad("root", "\"records\" not an array");
  std::size_t idx = 0;
  for (const json::Value& rv : records.as_array()) {
    const std::string where = "records[" + std::to_string(idx++) + "]";
    const json::Object& ro = expect_object(rv, where);
    PredictionRecord r;
    r.family = expect_string(ro, "family", where);
    r.bench = expect_string(ro, "bench", where);
    r.config = expect_string(ro, "config", where);
    const double n = expect_number(ro, "n", where);
    if (n != std::floor(n)) bad(where, "\"n\" not an integer");
    r.n = static_cast<int>(n);
    r.bin = expect_string(ro, "bin", where);
    // Optional (added after v1 baselines were committed): absent means
    // the record predates provenance tracking — "measured".
    const auto prov_it = ro.find("provenance");
    if (prov_it != ro.end()) {
      if (!prov_it->second.is_string())
        bad(where, "\"provenance\" not a string");
      r.provenance = prov_it->second.as_string();
    }
    r.adjusted = expect_bool(ro, "adjusted", where);
    r.tai = expect_number(ro, "tai", where);
    r.tci = expect_number(ro, "tci", where);
    r.predicted = expect_number(ro, "predicted", where);
    r.measured = expect_number(ro, "measured", where);
    rep.records.push_back(std::move(r));
  }

  const json::Value& scalars = expect_member(root, "scalars", "root");
  if (!scalars.is_object()) bad("root", "\"scalars\" not an object");
  for (const auto& [key, value] : scalars.as_object()) {
    if (!value.is_number())
      bad("scalars", "\"" + key + "\" not a number");
    rep.scalars[key] = value.as_number();
  }

  const json::Value& accuracy = expect_member(root, "accuracy", "root");
  if (!accuracy.is_object()) bad("root", "\"accuracy\" not an object");
  for (const auto& [family, fv] : accuracy.as_object()) {
    const std::string where = "accuracy[\"" + family + "\"]";
    const json::Object& fo = expect_object(fv, where);
    FamilyAccuracy fam;
    fam.all = parse_stats(expect_member(fo, "all", where), where + ".all");
    const json::Value& bins = expect_member(fo, "bins", where);
    if (!bins.is_object()) bad(where, "\"bins\" not an object");
    for (const auto& [bin, bv] : bins.as_object())
      fam.bins[bin] = parse_stats(bv, where + ".bins[\"" + bin + "\"]");
    // Optional (added after v1 baselines were committed).
    const auto prov_it = fo.find("provenance");
    if (prov_it != fo.end()) {
      if (!prov_it->second.is_object())
        bad(where, "\"provenance\" not an object");
      for (const auto& [prov, pv] : prov_it->second.as_object())
        fam.provenance[prov] =
            parse_stats(pv, where + ".provenance[\"" + prov + "\"]");
    }
    rep.accuracy[family] = std::move(fam);
  }
  return rep;
}

RunReport RunReport::load(const std::string& path) {
  return from_json(json::parse_file(path));
}

// -- merge ------------------------------------------------------------------

RunReport merge_reports(const std::vector<RunReport>& parts,
                        std::string name, bool strip_records) {
  RunReport out;
  out.name = std::move(name);
  for (const RunReport& part : parts) {
    if (part.records.empty() && !part.accuracy.empty())
      throw SchemaError("merge: report \"" + part.name +
                        "\" carries aggregates but no records "
                        "(already stripped?) — cannot re-aggregate");
    out.records.insert(out.records.end(), part.records.begin(),
                       part.records.end());
    for (const auto& [key, value] : part.scalars) {
      const auto [it, inserted] = out.scalars.emplace(key, value);
      if (!inserted && it->second != value)
        throw SchemaError("merge: conflicting values for scalar \"" + key +
                          "\"");
    }
  }
  out.recompute_accuracy();
  if (strip_records) out.records.clear();
  return out;
}

// -- diff -------------------------------------------------------------------

bool DiffResult::regressed() const {
  return std::any_of(checked.begin(), checked.end(),
                     [](const DiffItem& it) { return it.regressed; });
}

std::vector<std::string> DiffResult::regressions() const {
  std::vector<std::string> out;
  for (const DiffItem& it : checked)
    if (it.regressed) out.push_back(it.metric);
  return out;
}

namespace {

double error_limit(double baseline, const DiffOptions& opts) {
  return baseline + std::max(opts.abs_tol, opts.rel_tol * std::abs(baseline));
}

/// Emits the four checks of one AccuracyStats pair under `prefix.`.
void diff_stats(const std::string& prefix, const AccuracyStats& base,
                const AccuracyStats& cur, const DiffOptions& opts,
                DiffResult* out) {
  {
    DiffItem it{prefix + ".count", static_cast<double>(base.count),
                static_cast<double>(cur.count),
                static_cast<double>(base.count), false};
    it.regressed = cur.count < base.count;  // lost coverage
    out->checked.push_back(it);
  }
  {
    DiffItem it{prefix + ".mean_abs_rel_err", base.mean_abs_rel_err,
                cur.mean_abs_rel_err, error_limit(base.mean_abs_rel_err, opts),
                false};
    it.regressed = cur.mean_abs_rel_err > it.limit;
    out->checked.push_back(it);
  }
  {
    DiffItem it{prefix + ".max_abs_rel_err", base.max_abs_rel_err,
                cur.max_abs_rel_err, error_limit(base.max_abs_rel_err, opts),
                false};
    it.regressed = cur.max_abs_rel_err > it.limit;
    out->checked.push_back(it);
  }
  {
    // Correlation: lower is worse; `limit` is the floor.
    DiffItem it{prefix + ".pearson_r", base.pearson_r, cur.pearson_r,
                base.pearson_r - opts.abs_tol, false};
    it.regressed = cur.pearson_r < it.limit;
    out->checked.push_back(it);
  }
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

DiffResult diff_reports(const RunReport& baseline, const RunReport& current,
                        const DiffOptions& opts) {
  DiffResult out;

  for (const auto& [family, base_fam] : baseline.accuracy) {
    const auto cur_it = current.accuracy.find(family);
    if (cur_it == current.accuracy.end()) {
      if (opts.require_all)
        out.checked.push_back(DiffItem{"accuracy." + family,
                                       static_cast<double>(base_fam.all.count),
                                       0, 0, true});
      else
        out.skipped.push_back("accuracy." + family);
      continue;
    }
    diff_stats("accuracy." + family + ".all", base_fam.all, cur_it->second.all,
               opts, &out);
    for (const auto& [bin, base_stats] : base_fam.bins) {
      const auto bin_it = cur_it->second.bins.find(bin);
      const std::string prefix = "accuracy." + family + "." + bin;
      if (bin_it == cur_it->second.bins.end()) {
        if (opts.require_all)
          out.checked.push_back(DiffItem{
              prefix, static_cast<double>(base_stats.count), 0, 0, true});
        else
          out.skipped.push_back(prefix);
        continue;
      }
      diff_stats(prefix, base_stats, bin_it->second, opts, &out);
    }
    for (const auto& [prov, base_stats] : base_fam.provenance) {
      const auto pit = cur_it->second.provenance.find(prov);
      const std::string prefix = "accuracy." + family + ".prov." + prov;
      if (pit == cur_it->second.provenance.end()) {
        if (opts.require_all)
          out.checked.push_back(DiffItem{
              prefix, static_cast<double>(base_stats.count), 0, 0, true});
        else
          out.skipped.push_back(prefix);
        continue;
      }
      diff_stats(prefix, base_stats, pit->second, opts, &out);
    }
  }

  for (const auto& [key, base_value] : baseline.scalars) {
    const bool is_wall = ends_with(key, ".wall_s");
    const bool is_error = key.rfind("error.", 0) == 0;
    if (!is_wall && !is_error) continue;  // informational scalar
    const auto cur_it = current.scalars.find(key);
    if (cur_it == current.scalars.end()) {
      if (opts.require_all)
        out.checked.push_back(DiffItem{key, base_value, 0, 0, true});
      else
        out.skipped.push_back(key);
      continue;
    }
    DiffItem it{key, base_value, cur_it->second, 0, false};
    // A doctored or corrupted baseline must fail loudly, not disarm
    // the gate: a non-finite value makes the threshold unfireable (NaN
    // compares false against any limit). A non-finite current value
    // can likewise never compare as worse.
    if (!std::isfinite(base_value) || !std::isfinite(cur_it->second)) {
      it.regressed = true;
      out.checked.push_back(it);
      continue;
    }
    if (is_wall) {
      it.limit = base_value * opts.wall_ratio + 1.0;
      it.regressed = cur_it->second > it.limit;
    } else {
      // error.* magnitudes: larger error = regression.
      it.limit = error_limit(std::abs(base_value), opts);
      it.regressed = std::abs(cur_it->second) > it.limit;
    }
    out.checked.push_back(it);
  }
  return out;
}

// -- Recorder ---------------------------------------------------------------

Recorder& Recorder::instance() {
  static Recorder* rec = new Recorder();  // never destroyed (atexit flush)
  return *rec;
}

void Recorder::enable() {
  std::lock_guard<std::mutex> l(mu_);
  if (enabled_) return;
  enabled_ = true;
  start_s_ = steady_seconds();
}

bool Recorder::enabled() const {
  std::lock_guard<std::mutex> l(mu_);
  return enabled_;
}

void Recorder::set_family(const std::string& family) {
  std::lock_guard<std::mutex> l(mu_);
  family_ = family;
}

void Recorder::set_bench(const std::string& bench) {
  std::lock_guard<std::mutex> l(mu_);
  bench_ = bench;
}

std::string Recorder::family() const {
  std::lock_guard<std::mutex> l(mu_);
  return family_;
}

std::string Recorder::bench() const {
  std::lock_guard<std::mutex> l(mu_);
  return bench_;
}

void Recorder::record(PredictionRecord r) {
  std::lock_guard<std::mutex> l(mu_);
  if (!enabled_) return;
  if (r.family.empty()) r.family = family_.empty() ? "unlabeled" : family_;
  if (r.bench.empty()) r.bench = bench_;
  records_.push_back(std::move(r));
}

void Recorder::set_scalar(const std::string& name, double value) {
  std::lock_guard<std::mutex> l(mu_);
  if (!enabled_) return;
  scalars_[name] = value;
}

RunReport Recorder::build(const std::string& name) const {
  std::lock_guard<std::mutex> l(mu_);
  RunReport rep;
  rep.name = name.empty() ? bench_ : name;
  rep.records = records_;
  rep.scalars = scalars_;
  if (enabled_)
    rep.scalars["bench." + bench_ + ".wall_s"] = steady_seconds() - start_s_;
  rep.recompute_accuracy();
  return rep;
}

void Recorder::reset() {
  std::lock_guard<std::mutex> l(mu_);
  enabled_ = false;
  start_s_ = 0;
  family_.clear();
  bench_ = "run";
  records_.clear();
  scalars_.clear();
}

}  // namespace hetsched::obs::report
