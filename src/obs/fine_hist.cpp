#include "obs/fine_hist.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace hetsched::obs {

std::size_t FineHistogram::bin_index(double v) noexcept {
  if (!(v >= std::ldexp(1.0, kMinExp))) return 0;  // also zero/negative/NaN
  if (v >= std::ldexp(1.0, kMaxExp)) return kBins - 1;
  int exp = 0;
  // frexp: v = m * 2^exp with m in [0.5, 1)  =>  octave is exp-1 and
  // 2m-1 in [0, 1) is the position inside it.
  const double m = std::frexp(v, &exp);
  const int octave = exp - 1;
  auto sub = static_cast<std::size_t>((2.0 * m - 1.0) *
                                      static_cast<double>(kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return static_cast<std::size_t>(octave - kMinExp) * kSubBuckets + sub + 1;
}

double FineHistogram::bin_lower(std::size_t bin) noexcept {
  if (bin == 0) return 0.0;
  const std::size_t b = bin - 1;
  const auto octave = static_cast<int>(b / kSubBuckets);
  const auto sub = static_cast<double>(b % kSubBuckets);
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets),
                    kMinExp + octave);
}

double FineHistogram::bin_upper(std::size_t bin) noexcept {
  if (bin >= kBins - 1) return std::numeric_limits<double>::infinity();
  return bin_lower(bin + 1);
}

std::uint64_t FineHistogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& b : bins_) total += b.load(std::memory_order_relaxed);
  return total;
}

double FineHistogram::sum() const noexcept {
  double total = 0.0;
  for (const auto& s : sums_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t FineHistogram::bin_count(std::size_t bin) const noexcept {
  return bin < kBins ? bins_[bin].load(std::memory_order_relaxed) : 0;
}

namespace {

/// Quantile q of a histogram given as its non-empty bins, ascending,
/// holding `total` samples: walks the cumulative counts to the bucket
/// holding the ceil(q·total)-th sample and interpolates inside it.
double quantile_of(const decltype(HistogramSample::bins)& bins,
                   std::uint64_t total, double q) noexcept {
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  if (total == 0) return 0.0;
  // Rank of the wanted order statistic, 1-based, ceil(q * total)
  // clamped to [1, total] so q=0 is the minimum bucket and q=1 the
  // maximum one.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::size_t i = 0;
  std::uint64_t before = 0;
  while (i + 1 < bins.size() && before + bins[i].second < rank)
    before += bins[i++].second;
  const auto [bin, c] = bins[i];
  if (bin == FineHistogram::kBins - 1)
    return FineHistogram::bin_lower(bin);  // cannot span to +inf
  const double lo = FineHistogram::bin_lower(bin);
  const double hi = FineHistogram::bin_upper(bin);
  // Midpoint convention: the k-th of c samples in the bucket sits at
  // fraction (k - 0.5) / c of the width.
  const double frac =
      (static_cast<double>(rank - before) - 0.5) / static_cast<double>(c);
  return lo + (hi - lo) * frac;
}

}  // namespace

double FineHistogram::quantile(double q) const {
  const HistogramSample s = sample();
  return quantile_of(s.bins, s.count, q);
}

HistogramSample FineHistogram::sample(std::string name) const {
  HistogramSample s;
  s.name = std::move(name);
  for (std::size_t b = 0; b < kBins; ++b)
    if (const std::uint64_t c = bins_[b].load(std::memory_order_relaxed)) {
      s.bins.emplace_back(b, c);
      s.count += c;
    }
  s.sum = sum();
  s.p50 = quantile_of(s.bins, s.count, 0.5);
  s.p99 = quantile_of(s.bins, s.count, 0.99);
  return s;
}

void FineHistogram::reset() noexcept {
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  for (auto& s : sums_) s.v.store(0.0, std::memory_order_relaxed);
}

}  // namespace hetsched::obs
