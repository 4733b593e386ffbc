// Process-wide metrics registry: counters, gauges and log-scale
// histograms, designed for instrumentation of hot paths.
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
// Thread-safety: every public operation on Counter / Gauge / Histogram /
// MetricsRegistry is safe to call concurrently from any thread.
// Complexity: Counter::add / Gauge::set / Histogram::record are O(1)
// and allocation-free; snapshot() is O(metrics × stripes).
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

/// Fixed-bin log-scale histogram for non-negative samples spanning many
/// orders of magnitude (latencies in seconds, message sizes in bytes).
///
/// Binning: bin 0 is the underflow bin (v < 2^kMinExp, including zero
/// and negatives); bins 1..kBins-2 hold v with floor(log2 v) equal to
/// kMinExp .. kMaxExp-1 (bin b covers the half-open decade
/// [2^(kMinExp+b-1), 2^(kMinExp+b))); the last bin is the overflow bin
/// (v >= 2^kMaxExp). Edges are exact powers of two, so a sample exactly
/// on an edge lands deterministically in the upper bin.
class Histogram {
 public:
  static constexpr int kMinExp = -30;  ///< ~9.3e-10: below 1 ns, sub-byte
  static constexpr int kMaxExp = 33;   ///< ~8.6e9: hours, multi-GiB
  static constexpr std::size_t kBins =
      static_cast<std::size_t>(kMaxExp - kMinExp) + 2;

  /// Records one sample. O(1), wait-free, safe from any thread.
  void record(double v) noexcept {
    bins_[bin_index(v)].v.fetch_add(1, std::memory_order_relaxed);
    auto& sum = sums_[thread_stripe()].v;
    double cur = sum.load(std::memory_order_relaxed);
    while (!sum.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
    }
  }

  /// Bin a sample falls into. Pure; exposed for tests and scrapers.
  static std::size_t bin_index(double v) noexcept;
  /// Inclusive lower edge of `bin` (-inf for the underflow bin).
  static double bin_lower(std::size_t bin) noexcept;
  /// Exclusive upper edge of `bin` (+inf for the overflow bin).
  static double bin_upper(std::size_t bin) noexcept;

  std::uint64_t count() const noexcept;        ///< total samples
  double sum() const noexcept;                 ///< sum of sample values
  std::uint64_t bin_count(std::size_t bin) const noexcept;

  void reset() noexcept;

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  std::array<detail::U64Slot, kBins> bins_;
  std::array<detail::F64Slot, kStripes> sums_;
};

/// Fine-grained log-linear histogram (16 sub-buckets per octave) for
/// exact-ish quantiles — defined in obs/fine_hist.hpp, registrable here
/// via MetricsRegistry::fine_histogram().
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
struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Non-empty bins only, as (bin index, count) pairs.
  std::vector<std::pair<std::size_t, std::uint64_t>> bins;
};
/// Like HistogramSample but for FineHistogram bins, with the p50/p99
/// quantile estimates evaluated at scrape time.
struct FineHistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::vector<std::pair<std::size_t, std::uint64_t>> bins;
};

/// Point-in-time aggregation of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<FineHistogramSample> fine_histograms;

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
  Histogram* histogram(const std::string& name);
  FineHistogram* fine_histogram(const std::string& name);

  /// Aggregates all stripes of all metrics. O(metrics × stripes).
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
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      HETSCHED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<FineHistogram>> fine_
      HETSCHED_GUARDED_BY(mu_);
};

/// Shorthand for MetricsRegistry::instance().snapshot() — the one-call
/// "what has the process done so far" API.
MetricsSnapshot snapshot();

/// The snapshot as one canonical JSON document — the only renderer of the
/// registry: the `metrics` wire op serves it as its process section and
/// --metrics-out writes it followed by a newline. Fixed member order, no
/// whitespace, shortest round-trip numbers (obs/json.hpp); maps are
/// name-sorted, non-finite values render as null:
/// {"counters":{name:value,...},
///  "gauges":{name:value,...},
///  "histograms":{name:{"count":c,"sum":s,
///                      "bins":[[lower,upper,count],...]},...},
///  "fine_histograms":{name:{"count":c,"sum":s,"p50":q,"p99":q,
///                           "bins":[[lower,upper,count],...]},...}}
std::string registry_json(const MetricsSnapshot& snap);

}  // namespace hetsched::obs
