#include "obs/metrics.hpp"

#include <array>

#include "obs/fine_hist.hpp"
#include "obs/json.hpp"

namespace hetsched::obs {

using json::json_int;
using json::json_number_or_null;
using json::json_quote;

std::size_t thread_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

// -- Counter ----------------------------------------------------------------

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : slots_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
}

// -- Gauge ------------------------------------------------------------------

void Gauge::add(double d) noexcept {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

// -- MetricsSnapshot --------------------------------------------------------

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

bool MetricsSnapshot::has(const std::string& name) const {
  for (const auto& c : counters)
    if (c.name == name) return true;
  for (const auto& g : gauges)
    if (g.name == name) return true;
  for (const auto& h : histograms)
    if (h.name == name) return true;
  return false;
}

// -- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

MetricsRegistry::~MetricsRegistry() = default;

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge());
  return slot.get();
}

FineHistogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new FineHistogram());
  return slot.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> l(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back(CounterSample{name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back(GaugeSample{name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    snap.histograms.push_back(h->sample(name));
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> l(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot snapshot() { return MetricsRegistry::instance().snapshot(); }

namespace {

/// The text "[lower,upper," of each FineHistogram bin, rendered once:
/// bin b's text is edges.text[edges.at[b], edges.at[b + 1]).
struct BinEdgeText {
  std::string text;
  std::array<std::size_t, FineHistogram::kBins + 1> at{};
};

const BinEdgeText& bin_edge_text() {
  static const BinEdgeText edges = [] {
    BinEdgeText e;
    for (std::size_t b = 0; b < FineHistogram::kBins; ++b) {
      e.at[b] = e.text.size();
      e.text += '[';
      e.text += json_number_or_null(FineHistogram::bin_lower(b));
      e.text += ',';
      e.text += json_number_or_null(FineHistogram::bin_upper(b));
      e.text += ',';
    }
    e.at[FineHistogram::kBins] = e.text.size();
    return e;
  }();
  return edges;
}

}  // namespace

std::string histogram_json(const HistogramSample& h, const char* suffix) {
  std::string out = "{\"count\":";
  out += json_int(static_cast<std::int64_t>(h.count));
  const auto member = [&](const char* name, double v) {
    out += ",\"";
    out += name;
    out += suffix;
    out += "\":";
    out += json_number_or_null(v);
  };
  member("sum", h.sum);
  member("p50", h.p50);
  member("p99", h.p99);
  out += ",\"bins\":[";
  const BinEdgeText& edges = bin_edge_text();
  for (std::size_t b = 0; b < h.bins.size(); ++b) {
    if (b) out += ',';
    const std::size_t bin = h.bins[b].first;
    out.append(edges.text, edges.at[bin], edges.at[bin + 1] - edges.at[bin]);
    out += json_int(static_cast<std::int64_t>(h.bins[b].second));
    out += ']';
  }
  out += "]}";
  return out;
}

std::string registry_json(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) out += ',';
    out += json_quote(snap.counters[i].name);
    out += ':';
    out += json_int(static_cast<std::int64_t>(snap.counters[i].value));
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) out += ',';
    out += json_quote(snap.gauges[i].name);
    out += ':';
    out += json_number_or_null(snap.gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    if (i) out += ',';
    out += json_quote(snap.histograms[i].name);
    out += ':';
    out += histogram_json(snap.histograms[i], "");
  }
  out += "}}";
  return out;
}

}  // namespace hetsched::obs
