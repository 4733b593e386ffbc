// obs::FineHistogram, the one histogram type: bin placement, quantile
// semantics, registry integration and the metrics-JSON `histograms`
// section.
//
// The sub-bucketed histogram backs two user-visible numbers — the
// server's per-op p50/p99 (docs/SERVER.md §4.6) and the registry's
// histograms scrape — so its arithmetic is pinned here, not just
// eyeballed.
#include "obs/fine_hist.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/hooks.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace hetsched::obs {
namespace {

TEST(FineHistogram, BinEdgesArePureArithmetic) {
  // Underflow bin: zero, negatives, NaN, and anything below 2^kMinExp.
  EXPECT_EQ(FineHistogram::bin_index(0.0), 0u);
  EXPECT_EQ(FineHistogram::bin_index(-1.0), 0u);
  EXPECT_EQ(FineHistogram::bin_index(std::nan("")), 0u);
  EXPECT_EQ(FineHistogram::bin_index(std::ldexp(1.0, -31)), 0u);

  // 2^kMinExp is the first real bucket's inclusive lower edge.
  EXPECT_EQ(FineHistogram::bin_index(std::ldexp(1.0, FineHistogram::kMinExp)),
            1u);
  EXPECT_DOUBLE_EQ(FineHistogram::bin_lower(1),
                   std::ldexp(1.0, FineHistogram::kMinExp));
  EXPECT_DOUBLE_EQ(FineHistogram::bin_lower(0), 0.0);

  // An octave is split into 16 equal sub-buckets: 1.0 s starts the
  // [1, 2) octave, 1.0625 the next sub-bucket, 1.9999 the last.
  const std::size_t one = FineHistogram::bin_index(1.0);
  EXPECT_EQ(FineHistogram::bin_index(1.06), one);
  EXPECT_EQ(FineHistogram::bin_index(1.0625), one + 1);
  EXPECT_EQ(FineHistogram::bin_index(1.999), one + 15);
  EXPECT_EQ(FineHistogram::bin_index(2.0), one + 16);
  EXPECT_DOUBLE_EQ(FineHistogram::bin_lower(one), 1.0);
  EXPECT_DOUBLE_EQ(FineHistogram::bin_upper(one), 1.0625);

  // Overflow bin: everything at or past 2^kMaxExp, +inf upper edge.
  const std::size_t last = FineHistogram::kBins - 1;
  EXPECT_EQ(FineHistogram::bin_index(std::ldexp(1.0, FineHistogram::kMaxExp)),
            last);
  EXPECT_EQ(FineHistogram::bin_index(1e300), last);
  EXPECT_EQ(FineHistogram::bin_index(std::numeric_limits<double>::infinity()),
            last);
  EXPECT_TRUE(std::isinf(FineHistogram::bin_upper(last)));

  // Edges tile: every bin's upper edge is the next bin's lower edge, and
  // every bucket's lower edge lands in that bucket.
  for (std::size_t b = 0; b + 1 < FineHistogram::kBins; ++b) {
    EXPECT_DOUBLE_EQ(FineHistogram::bin_upper(b),
                     FineHistogram::bin_lower(b + 1))
        << "bin " << b;
    if (b > 0) {
      EXPECT_EQ(FineHistogram::bin_index(FineHistogram::bin_lower(b)), b)
          << "bin " << b;
    }
  }
}

TEST(FineHistogram, CountSumAndReset) {
  FineHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty → 0
  h.record(1.0);
  h.record(2.0);
  h.record(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_EQ(h.bin_count(FineHistogram::bin_index(1.0)), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(FineHistogram, QuantileIsWithinOneBucketWidth) {
  // 1000 samples spread uniformly across [0.001, 0.002): the q-th
  // quantile must land within ~6.25% of the exact order statistic.
  FineHistogram h;
  std::vector<double> exact;
  for (int i = 0; i < 1000; ++i) {
    const double v = 0.001 + 0.000001 * i;
    h.record(v);
    exact.push_back(v);
  }
  for (const double q : {0.01, 0.5, 0.9, 0.99}) {
    const double want =
        exact[static_cast<std::size_t>(q * (exact.size() - 1))];
    const double got = h.quantile(q);
    EXPECT_NEAR(got, want, want * 0.07) << "q=" << q;
  }
  // q clamps: 0 → first sample's bucket, 1 → last sample's bucket.
  EXPECT_GT(h.quantile(0.0), 0.0009);
  EXPECT_LT(h.quantile(1.0), 0.0021);
}

TEST(FineHistogram, QuantileIsDeterministicAcrossInsertionOrder) {
  FineHistogram a, b;
  const std::vector<double> vals = {3e-6, 1e-6, 2e-6, 8e-6, 5e-7, 2e-6};
  for (const double v : vals) a.record(v);
  for (auto it = vals.rbegin(); it != vals.rend(); ++it) b.record(*it);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
}

TEST(FineHistogram, OverflowBucketReportsItsLowerEdge) {
  FineHistogram h;
  h.record(1e12);  // way past 2^33
  EXPECT_DOUBLE_EQ(h.quantile(0.5),
                   std::ldexp(1.0, FineHistogram::kMaxExp));
}

TEST(FineHistogram, ConcurrentRecordsAreLossless) {
  FineHistogram h;
  constexpr int kThreads = 8, kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(1e-6 * (1 + (t + i) % 7));
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

#if HETSCHED_OBS_ACTIVE
TEST(FineHistogramRegistry, MacroRecordsIntoNamedMetric) {
  MetricsRegistry::instance().reset();
  HETSCHED_HISTOGRAM_RECORD("test.fine_macro_s", 0.0015);
  HETSCHED_HISTOGRAM_RECORD("test.fine_macro_s", 0.0015);
  FineHistogram* h = MetricsRegistry::instance().histogram("test.fine_macro_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  // Same name → same instance (interned, like every registry metric).
  EXPECT_EQ(MetricsRegistry::instance().histogram("test.fine_macro_s"), h);

  const MetricsSnapshot snap = snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "test.fine_macro_s");
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_NEAR(snap.histograms[0].p50, 0.0015, 0.0015 * 0.07);
  MetricsRegistry::instance().reset();
}

TEST(FineHistogramRegistry, WriteMetricsJsonCarriesFineHistograms) {
  MetricsRegistry::instance().reset();
  HETSCHED_HISTOGRAM_RECORD("test.fine_json_s", 0.002);
  const std::string out = registry_json(snapshot());
  const json::Value doc = json::parse(out);
  const json::Value* histograms = doc.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* h = histograms->find("test.fine_json_s");
  ASSERT_NE(h, nullptr) << out;
  EXPECT_DOUBLE_EQ(h->find("count")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h->find("sum")->as_number(), 0.002);
  ASSERT_NE(h->find("p99"), nullptr);
  // Bin rows are [lower, upper, count] with the recorded sample inside.
  const json::Value* bins = h->find("bins");
  ASSERT_NE(bins, nullptr);
  ASSERT_EQ(bins->as_array().size(), 1u);
  const auto& bin = bins->as_array()[0].as_array();
  EXPECT_LE(bin[0].as_number(), 0.002);
  EXPECT_GT(bin[1].as_number(), 0.002);
  EXPECT_DOUBLE_EQ(bin[2].as_number(), 1.0);
  MetricsRegistry::instance().reset();
}
#endif  // HETSCHED_OBS_ACTIVE

}  // namespace
}  // namespace hetsched::obs
