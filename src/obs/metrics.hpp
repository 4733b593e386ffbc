// Process-wide metrics registry: counters, gauges and histograms (the
// one histogram type, obs::FineHistogram in obs/fine_hist.hpp), designed
// for instrumentation of hot paths.
//
// Design constraints (see docs/OBSERVABILITY.md for the full story):
//
//  * *Lock-cheap updates.* Counters and histogram sums are striped over
//    cache-line-aligned thread-slots: an update is one relaxed atomic
//    RMW on the calling thread's stripe, with no shared-line ping-pong
//    between threads that stay on their own stripes. Aggregation happens
//    only on scrape (`snapshot()`), which sums the stripes.
//  * *Registration is interned.* `registry().counter(name)` takes a
//    mutex once; hot paths cache the returned pointer in a function-local
//    static (what the HETSCHED_COUNTER_ADD family of macros in
//    obs/hooks.hpp does), so the name lookup never recurs.
//  * *Monotonic lifetime.* Metric objects are never destroyed or moved
//    once registered; pointers handed out stay valid for the process
//    lifetime. `reset()` zeroes values but keeps registrations.
//
// Thread-safety: every public operation on Counter / Gauge /
// FineHistogram / MetricsRegistry is safe to call concurrently from any
// thread. Complexity: Counter::add / Gauge::set / FineHistogram::record
// are O(1) and allocation-free; snapshot() is O(metrics × stripes +
// histograms × bins).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/thread_annotations.hpp"

namespace hetsched::obs {

/// Number of per-thread update stripes (power of two). Threads are
/// assigned stripes round-robin at first metric touch.
inline constexpr std::size_t kStripes = 16;

/// Index of the calling thread's stripe in [0, kStripes).
std::size_t thread_stripe() noexcept;

namespace detail {
struct alignas(64) U64Slot {
  std::atomic<std::uint64_t> v{0};
};
struct alignas(64) F64Slot {
  std::atomic<double> v{0.0};
};
}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  /// Adds `d` to the counter. O(1), wait-free, safe from any thread.
  void add(std::uint64_t d = 1) noexcept {
    slots_[thread_stripe()].v.fetch_add(d, std::memory_order_relaxed);
  }

  /// Sum over all stripes. Monotone between reset()s; concurrent adds
  /// may or may not be included (relaxed reads).
  std::uint64_t value() const noexcept;

  void reset() noexcept;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::array<detail::U64Slot, kStripes> slots_;
};

/// Last-written instantaneous value (e.g. current virtual time, live
/// cache entries). Unlike Counter, set() is a plain store: the newest
/// writer wins, which is the wanted semantics for a level.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept;  ///< atomic increment (CAS loop)
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> v_{0.0};
};

/// The one histogram type, defined in obs/fine_hist.hpp: log-linear
/// bins (16 per octave, 2^-30 … 2^33) with p50/p99 estimates.
class FineHistogram;

// -- scrape side ------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  double value = 0.0;
};
/// A FineHistogram at scrape time (FineHistogram::sample()), with the
/// p50/p99 quantile estimates evaluated when it was taken.
struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Non-empty bins only, as (bin index, count) pairs.
  std::vector<std::pair<std::size_t, std::uint64_t>> bins;
};

/// Point-in-time aggregation of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Counter value by exact name; 0 if absent.
  std::uint64_t counter_value(const std::string& name) const;
  /// True if any metric of any type carries `name`.
  bool has(const std::string& name) const;
};

/// The process-wide registry. Metric names are dotted paths,
/// `layer.subject[.detail]` — see docs/OBSERVABILITY.md for the scheme.
class MetricsRegistry {
 public:
  /// The singleton. Never destroyed (intentionally leaked so atexit
  /// scrapers and detached threads can always touch it).
  static MetricsRegistry& instance();

  /// Get-or-create. The returned pointer is valid forever; hot paths
  /// should cache it (the obs/hooks.hpp macros do).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  FineHistogram* histogram(const std::string& name);

  /// Aggregates all stripes of all metrics. O(metrics × stripes +
  /// histograms × bins).
  MetricsSnapshot snapshot() const;

  /// Zeroes every value, keeping registrations (tests).
  void reset();

 private:
  MetricsRegistry() = default;
  ~MetricsRegistry();  // out-of-line: FineHistogram is incomplete here
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      HETSCHED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      HETSCHED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<FineHistogram>> histograms_
      HETSCHED_GUARDED_BY(mu_);
};

/// Shorthand for MetricsRegistry::instance().snapshot() — the one-call
/// "what has the process done so far" API.
MetricsSnapshot snapshot();

/// One histogram's members as canonical JSON, every member but `count`
/// and `bins` carrying `suffix` (the `metrics` op's per-op entries pass
/// "_s"; the registry passes ""):
/// {"count":c,"sum<suffix>":s,"p50<suffix>":q,"p99<suffix>":q,
///  "bins":[[lower,upper,count],...]}
/// Non-finite values (the overflow bin's +inf upper edge) render as null.
/// `h.bins` holds FineHistogram bin indices; the text of every bin's
/// edges is rendered once per process and copied from there.
std::string histogram_json(const HistogramSample& h, const char* suffix);

/// The snapshot as one canonical JSON document — the only renderer of the
/// registry: the `metrics` wire op serves it as its process section and
/// --metrics-out writes it followed by a newline. Fixed member order, no
/// whitespace, shortest round-trip numbers (obs/json.hpp); maps are
/// name-sorted, non-finite values render as null:
/// {"counters":{name:value,...},
///  "gauges":{name:value,...},
///  "histograms":{name:histogram_json(h, ""),...}}
std::string registry_json(const MetricsSnapshot& snap);

}  // namespace hetsched::obs
