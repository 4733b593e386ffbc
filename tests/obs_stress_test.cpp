// Concurrency stress for the metrics layer (CTest label: stress, like
// search_stress_test): many threads hammering the same counter,
// histogram and tracer must lose no updates and tear no state.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/fine_hist.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace obs = hetsched::obs;

namespace {

// Launch `n` threads, release them through a latch so they arrive at
// the body together, join all. The waiters block instead of spinning:
// with more threads than cores, spinning waiters starve the threads
// still being started, which under TSan took minutes.
void run_threads(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::latch ready(static_cast<std::ptrdiff_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t)
    threads.emplace_back([&, t] {
      ready.arrive_and_wait();
      body(t);
    });
  for (auto& th : threads) th.join();
}

}  // namespace

TEST(ObsStress, ConcurrentCounterIncrementsAreLossless) {
  constexpr std::size_t kThreads = 32;  // 2x the stripe count: forced sharing
  constexpr std::uint64_t kPerThread = 100000;
  obs::Counter* c =
      obs::MetricsRegistry::instance().counter("stress.counter");
  c->reset();
  run_threads(kThreads, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) c->add();
  });
  EXPECT_EQ(c->value(), kThreads * kPerThread);
  EXPECT_EQ(obs::snapshot().counter_value("stress.counter"),
            kThreads * kPerThread);
}

TEST(ObsStress, ConcurrentHistogramRecordsKeepCountAndSum) {
  constexpr std::size_t kThreads = 16;
  constexpr std::uint64_t kPerThread = 20000;
  obs::FineHistogram* h =
      obs::MetricsRegistry::instance().histogram("stress.histo");
  h->reset();
  run_threads(kThreads, [&](std::size_t t) {
    // Each thread records a thread-specific power of two: per-bin counts
    // are exactly checkable afterwards.
    const double v = std::ldexp(1.0, static_cast<int>(t));
    for (std::uint64_t i = 0; i < kPerThread; ++i) h->record(v);
  });
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  double expected_sum = 0.0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t bin = obs::FineHistogram::bin_index(
        std::ldexp(1.0, static_cast<int>(t)));
    EXPECT_EQ(h->bin_count(bin), kPerThread) << "bin for 2^" << t;
    expected_sum += std::ldexp(1.0, static_cast<int>(t)) *
                    static_cast<double>(kPerThread);
  }
  EXPECT_DOUBLE_EQ(h->sum(), expected_sum);
}

// A scrape taken while writers record must be self-consistent: the
// `+Inf` bucket hetsched_scrape writes is the sample's count, the finite
// buckets are summed from its bins, so a count older than the bins
// would render a `+Inf` bucket below a finite one.
TEST(ObsStress, FineHistogramSampleCountIsTheSumOfItsBins) {
  constexpr std::size_t kWriters = 2;
  obs::FineHistogram h;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> writing{0};
  int samples = 0, moved = 0, inconsistent = 0;
  run_threads(kWriters + 1, [&](std::size_t t) {
    if (t < kWriters) {
      writing.fetch_add(1, std::memory_order_relaxed);
      // Latency-like values over a few octaves, so many bins move.
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i)
        h.record(std::ldexp(1.0 + static_cast<double>(i % 97) / 97.0,
                            -20 + static_cast<int>((i + t) % 6)));
      return;
    }
    while (writing.load(std::memory_order_relaxed) < kWriters) {
    }
    // Sample until 2,000 samples saw the writers move the count (or a
    // cap, for a host that runs the writers rarely).
    std::uint64_t last = 0;
    for (; samples < 20000 && moved < 2000; ++samples) {
      const obs::HistogramSample s = h.sample();
      std::uint64_t binned = 0;
      for (const auto& [bin, count] : s.bins) binned += count;
      if (binned != s.count) ++inconsistent;
      if (s.count != last) ++moved;
      last = s.count;
    }
    stop.store(true, std::memory_order_relaxed);
  });
  EXPECT_EQ(inconsistent, 0) << "of " << samples << " samples, " << moved
                             << " of which saw the count move";
}

TEST(ObsStress, ConcurrentMixedRegistrationAndUpdates) {
  constexpr std::size_t kThreads = 16;
  run_threads(kThreads, [&](std::size_t t) {
    auto& reg = obs::MetricsRegistry::instance();
    // Everyone races get-or-create on shared names plus one private name.
    for (int i = 0; i < 1000; ++i) {
      reg.counter("stress.shared")->add();
      reg.gauge("stress.gauge")->set(static_cast<double>(t));
      reg.counter("stress.private." + std::to_string(t))->add();
      if (i % 100 == 0) (void)reg.snapshot();  // scrape under fire
    }
  });
  const obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_GE(snap.counter_value("stress.shared"), kThreads * 1000u);
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(snap.counter_value("stress.private." + std::to_string(t)),
              1000u);
  const double g =
      obs::MetricsRegistry::instance().gauge("stress.gauge")->value();
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, static_cast<double>(kThreads));  // no torn doubles
}

TEST(ObsStress, ConcurrentTracingStaysWellFormed) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.clear();
  tr.enable();
  constexpr std::size_t kThreads = 8;
  constexpr int kSpansPerThread = 500;
  run_threads(kThreads, [&](std::size_t t) {
    for (int i = 0; i < kSpansPerThread; ++i) {
      obs::Span s("stress", "span");
      s.arg("thread", static_cast<long long>(t)).arg("i", i);
      obs::AsyncSpan a("stress", "async");
      if (i % 50 == 0) obs::instant("stress", "mark");
    }
  });
  tr.disable();
  // 1 "X" + 1 "b" + 1 "e" per iteration, plus the instants.
  EXPECT_GE(tr.event_count(), kThreads * kSpansPerThread * 3u);

  std::ostringstream os;
  tr.write_json(os);
  const obs::json::Value doc = obs::json::parse(os.str());  // throws if torn
  EXPECT_TRUE(doc.find("traceEvents")->is_array());
  tr.clear();
}
