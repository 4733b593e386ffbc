// The one histogram type: log-linear bins for quantiles on samples that
// span many orders of magnitude (latencies in seconds, sizes in bytes).
//
// Every octave [2^e, 2^(e+1)) from 2^kMinExp to 2^kMaxExp is split into
// kSubBuckets equal linear sub-buckets, so a bucket is at most
// 1/kSubBuckets (= 6.25 %) of its lower edge wide: a quantile read off
// the bucket edges is within ~6 % of the exact order statistic, and
// within-bucket interpolation does better in practice. One bin per
// octave could not answer a p99 SLO on a distribution that lives inside
// one octave (a cached advise answer takes ~2 µs). The range, 2^-30
// (below 1 ns, sub-byte) to 2^33 (8 GiB, and far longer than any run in
// seconds), is what the record sites need: des.vt_advance_s fills every
// octave from 2^-30 up, mpisim.msg_bytes reaches megabytes and
// measure.sample_wall_s passes 2^8 s.
//
// The constructor is public: a FineHistogram is equally usable as a
// plain member (server::Service keeps one per wire op) and as a named
// registry metric via MetricsRegistry::histogram() /
// HETSCHED_HISTOGRAM_RECORD. Everything is deterministic given the
// multiset of recorded samples: bin placement is pure arithmetic and
// quantile() never looks at insertion order, which is what makes served
// quantiles byte-testable.
//
// Thread-safety: record() is wait-free and safe from any thread
// (per-bin relaxed atomics; sums striped like Counter). Readers get
// per-bin-consistent values; count()/sum()/quantile() taken while
// writers run are approximate in the usual monotonic-counter sense;
// sample() reads each bin once, so its count and quantiles agree with
// its bins.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace hetsched::obs {

class FineHistogram {
 public:
  static constexpr int kMinExp = -30;  ///< 2^-30 ≈ 9.3e-10: below 1 ns
  static constexpr int kMaxExp = 33;   ///< 2^33 ≈ 8.6e9: 8 GiB
  static constexpr std::size_t kSubBuckets = 16;  ///< per octave
  /// Underflow bin + (kMaxExp-kMinExp) octaves × kSubBuckets + overflow.
  static constexpr std::size_t kBins =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  FineHistogram() = default;
  FineHistogram(const FineHistogram&) = delete;
  FineHistogram& operator=(const FineHistogram&) = delete;

  /// Records one sample. O(1), wait-free, allocation-free.
  void record(double v) noexcept {
    bins_[bin_index(v)].fetch_add(1, std::memory_order_relaxed);
    auto& sum = sums_[thread_stripe()].v;
    double cur = sum.load(std::memory_order_relaxed);
    while (!sum.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
    }
  }

  /// Bin a sample falls into. Bin 0 is underflow (v < 2^kMinExp,
  /// including zero, negatives and NaN); the last bin is overflow
  /// (v >= 2^kMaxExp, including +inf). In between, the sample's octave
  /// [2^e, 2^(e+1)) is split into kSubBuckets equal linear sub-buckets;
  /// edges land deterministically in the upper bucket.
  static std::size_t bin_index(double v) noexcept;
  /// Inclusive lower edge of `bin` (0 for the underflow bin — samples
  /// there are treated as [0, 2^kMinExp) by quantile()).
  static double bin_lower(std::size_t bin) noexcept;
  /// Exclusive upper edge of `bin` (+inf for the overflow bin).
  static double bin_upper(std::size_t bin) noexcept;

  std::uint64_t count() const noexcept;  ///< total samples
  double sum() const noexcept;           ///< sum of sample values
  std::uint64_t bin_count(std::size_t bin) const noexcept;

  /// Quantile estimate for q in [0, 1]: walks the cumulative bin counts
  /// to the bucket holding the ceil(q·count)-th sample and linearly
  /// interpolates inside it. Exact to within one bucket width (≤ ~6%
  /// relative); 0 when empty. Deterministic for a fixed multiset of
  /// samples. The overflow bucket reports its lower edge.
  double quantile(double q) const;

  /// The scrape-time view, under `name`: count, sum, p50, p99 and the
  /// non-empty bins — what histogram_json() renders. Count and
  /// quantiles are derived from the one copy of the bins.
  HistogramSample sample(std::string name = {}) const;

  void reset() noexcept;

 private:
  // Bins are plain (unpadded) atomics: 16 sub-buckets share a cache
  // line, but updates are relaxed fetch_adds and neighbouring-latency
  // contention is exactly the same line a striped layout would fight
  // over anyway — and padding 1,010 bins to 64 B each would cost 63 KiB
  // per histogram.
  std::array<std::atomic<std::uint64_t>, kBins> bins_{};
  std::array<detail::F64Slot, kStripes> sums_;
};

}  // namespace hetsched::obs
