#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

// -- Histogram --------------------------------------------------------------

std::size_t Histogram::bin_index(double v) noexcept {
  // ilogb(v) is exactly floor(log2 v) for positive finite doubles, which
  // puts power-of-two edges deterministically in the upper bin.
  if (!(v > 0.0) || std::isnan(v)) return 0;  // zero, negatives, NaN
  if (std::isinf(v)) return kBins - 1;
  const int e = std::ilogb(v);
  if (e < kMinExp) return 0;
  if (e >= kMaxExp) return kBins - 1;
  return static_cast<std::size_t>(e - kMinExp) + 1;
}

double Histogram::bin_lower(std::size_t bin) noexcept {
  if (bin == 0) return -std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, kMinExp + static_cast<int>(bin) - 1);
}

double Histogram::bin_upper(std::size_t bin) noexcept {
  if (bin >= kBins - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, kMinExp + static_cast<int>(bin));
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : bins_) total += b.v.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0.0;
  for (const auto& s : sums_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::bin_count(std::size_t bin) const noexcept {
  if (bin >= kBins) return 0;
  return bins_[bin].v.load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (auto& b : bins_) b.v.store(0, std::memory_order_relaxed);
  for (auto& s : sums_) s.v.store(0.0, std::memory_order_relaxed);
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

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram());
  return slot.get();
}

FineHistogram* MetricsRegistry::fine_histogram(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = fine_[name];
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
  for (const auto& [name, h] : histograms_) {
    HistogramSample hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    for (std::size_t b = 0; b < Histogram::kBins; ++b)
      if (const std::uint64_t c = h->bin_count(b)) hs.bins.emplace_back(b, c);
    snap.histograms.push_back(std::move(hs));
  }
  snap.fine_histograms.reserve(fine_.size());
  for (const auto& [name, h] : fine_) {
    FineHistogramSample fs;
    fs.name = name;
    fs.count = h->count();
    fs.sum = h->sum();
    fs.p50 = h->quantile(0.5);
    fs.p99 = h->quantile(0.99);
    for (std::size_t b = 0; b < FineHistogram::kBins; ++b)
      if (const std::uint64_t c = h->bin_count(b)) fs.bins.emplace_back(b, c);
    snap.fine_histograms.push_back(std::move(fs));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> l(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, h] : fine_) h->reset();
}

MetricsSnapshot snapshot() { return MetricsRegistry::instance().snapshot(); }

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
    const auto& h = snap.histograms[i];
    if (i) out += ',';
    out += json_quote(h.name);
    out += ":{\"count\":";
    out += json_int(static_cast<std::int64_t>(h.count));
    out += ",\"sum\":";
    out += json_number_or_null(h.sum);
    out += ",\"bins\":[";
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      if (b) out += ',';
      out += '[';
      out += json_number_or_null(Histogram::bin_lower(h.bins[b].first));
      out += ',';
      out += json_number_or_null(Histogram::bin_upper(h.bins[b].first));
      out += ',';
      out += json_int(static_cast<std::int64_t>(h.bins[b].second));
      out += ']';
    }
    out += "]}";
  }
  out += "},\"fine_histograms\":{";
  for (std::size_t i = 0; i < snap.fine_histograms.size(); ++i) {
    const auto& h = snap.fine_histograms[i];
    if (i) out += ',';
    out += json_quote(h.name);
    out += ":{\"count\":";
    out += json_int(static_cast<std::int64_t>(h.count));
    out += ",\"sum\":";
    out += json_number_or_null(h.sum);
    out += ",\"p50\":";
    out += json_number_or_null(h.p50);
    out += ",\"p99\":";
    out += json_number_or_null(h.p99);
    out += ",\"bins\":[";
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      if (b) out += ',';
      out += '[';
      out += json_number_or_null(FineHistogram::bin_lower(h.bins[b].first));
      out += ',';
      out += json_number_or_null(FineHistogram::bin_upper(h.bins[b].first));
      out += ',';
      out += json_int(static_cast<std::int64_t>(h.bins[b].second));
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace hetsched::obs
