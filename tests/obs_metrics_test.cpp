// Metrics registry: counter/gauge semantics and the snapshot + JSON
// scrape path: registry_json's byte-pinned form and the --metrics-out
// artifact, validated with the obs JSON parser. Histogram bin arithmetic
// is pinned in obs_fine_hist_test.cpp.
//
// The registry is process-wide, so every test uses its own metric-name
// prefix; values are asserted as deltas where the registry may already
// hold state from other tests in this binary.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/fine_hist.hpp"
#include "obs/io.hpp"
#include "obs/json.hpp"

namespace obs = hetsched::obs;

TEST(ObsCounter, AddsAndResets) {
  obs::Counter* c = obs::MetricsRegistry::instance().counter("t.counter.add");
  const std::uint64_t before = c->value();
  c->add();
  c->add(41);
  EXPECT_EQ(c->value(), before + 42);
  c->reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST(ObsCounter, InternedByName) {
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("t.counter.same"), reg.counter("t.counter.same"));
  EXPECT_NE(reg.counter("t.counter.same"), reg.counter("t.counter.other"));
}

TEST(ObsGauge, LastWriteWinsAndAdds) {
  obs::Gauge* g = obs::MetricsRegistry::instance().gauge("t.gauge");
  g->set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  g->set(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), -1.0);
  g->add(0.5);
  EXPECT_DOUBLE_EQ(g->value(), -0.5);
  g->reset();
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(ObsSnapshot, ReportsRegisteredMetrics) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("t.snap.counter")->add(7);
  reg.gauge("t.snap.gauge")->set(1.25);
  reg.histogram("t.snap.histo")->record(4.0);

  const obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_GE(snap.counter_value("t.snap.counter"), 7u);
  EXPECT_EQ(snap.counter_value("t.snap.absent"), 0u);
  EXPECT_TRUE(snap.has("t.snap.counter"));
  EXPECT_TRUE(snap.has("t.snap.gauge"));
  EXPECT_TRUE(snap.has("t.snap.histo"));
  EXPECT_FALSE(snap.has("t.snap.absent"));

  // Snapshots are sorted by name within each metric type.
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

TEST(ObsSnapshot, JsonScrapeRoundTrips) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("t.json.counter")->add(3);
  reg.gauge("t.json.gauge")->set(0.125);
  obs::FineHistogram* h = reg.histogram("t.json.histo");
  h->reset();
  h->record(2.0);
  h->record(2.0);

  const obs::json::Value doc =
      obs::json::parse(obs::registry_json(obs::snapshot()));

  const obs::json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::json::Value* c = counters->find("t.json.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->as_number(), 3.0);

  const obs::json::Value* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const obs::json::Value* g = gauges->find("t.json.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->as_number(), 0.125);

  const obs::json::Value* histos = doc.find("histograms");
  ASSERT_NE(histos, nullptr);
  const obs::json::Value* hv = histos->find("t.json.histo");
  ASSERT_NE(hv, nullptr);
  EXPECT_DOUBLE_EQ(hv->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hv->find("sum")->as_number(), 4.0);
  const obs::json::Array& bins = hv->find("bins")->as_array();
  ASSERT_EQ(bins.size(), 1u);  // both samples share the [2, 2.125) bin
  const obs::json::Array& bin = bins[0].as_array();
  ASSERT_EQ(bin.size(), 3u);
  EXPECT_DOUBLE_EQ(bin[0].as_number(), 2.0);
  EXPECT_DOUBLE_EQ(bin[1].as_number(), 2.125);
  EXPECT_DOUBLE_EQ(bin[2].as_number(), 2.0);
}

TEST(ObsSnapshot, RegistryJsonIsByteStable) {
  // The canonical rendering the `metrics` op serves as its process
  // section: fixed member order, no whitespace, shortest round-trip
  // numbers, and null for every non-finite value — inf/nan gauges, an
  // infinite p99 and the +inf upper edge of the overflow bin.
  const double inf = std::numeric_limits<double>::infinity();
  obs::MetricsSnapshot snap;
  snap.counters = {{"server.requests", 42}, {"quote\"d", 7}};
  snap.gauges = {{"g.ratio", 0.1},
                 {"g.inf", inf},
                 {"g.nan", std::numeric_limits<double>::quiet_NaN()}};
  obs::HistogramSample f;
  f.name = "f.fine_s";
  f.count = 4;
  f.sum = 1.0 / 3.0;
  f.p50 = 0.001007080078125;
  f.p99 = inf;
  f.bins = {{0, 1},
            {obs::FineHistogram::bin_index(0.001), 2},
            {obs::FineHistogram::kBins - 1, 1}};
  obs::HistogramSample h;
  h.name = "h.bytes";
  h.count = 1;
  h.sum = 0.1 + 0.2;
  h.bins = {{obs::FineHistogram::bin_index(1.5), 1}};
  snap.histograms = {f, h};
  EXPECT_EQ(obs::registry_json(snap),
            "{\"counters\":{\"server.requests\":42,\"quote\\\"d\":7},"
            "\"gauges\":{\"g.ratio\":0.1,\"g.inf\":null,\"g.nan\":null},"
            "\"histograms\":{\"f.fine_s\":{\"count\":4,"
            "\"sum\":0.3333333333333333,\"p50\":0.001007080078125,"
            "\"p99\":null,\"bins\":[[0,9.313225746154785e-10,1],"
            "[0.0009765625,0.00103759765625,2],[8589934592,null,1]]},"
            "\"h.bytes\":{\"count\":1,\"sum\":0.30000000000000004,"
            "\"p50\":0,\"p99\":0,\"bins\":[[1.5,1.5625,1]]}}}");
  EXPECT_EQ(obs::registry_json(obs::MetricsSnapshot{}),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(ObsSnapshot, MetricsOutWritesTheRegistryDocument) {
  obs::MetricsRegistry::instance().counter("t.out.quote\"d")->add(1);
  const std::string path = ::testing::TempDir() + "obs_metrics_out.json";
  ASSERT_TRUE(obs::consume_arg("--metrics-out=" + path));
  ASSERT_EQ(obs::flush_outputs(), 1);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), obs::registry_json(obs::snapshot()) + "\n");
  const obs::json::Value doc = obs::json::parse(text.str());
  const obs::json::Value* c = doc.find("counters")->find("t.out.quote\"d");
  ASSERT_NE(c, nullptr) << text.str();
  EXPECT_GE(c->as_number(), 1.0);
  std::remove(path.c_str());
}

TEST(ObsRegistry, ResetZeroesButKeepsRegistrations) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter* c = reg.counter("t.reset.counter");
  c->add(5);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_TRUE(obs::snapshot().has("t.reset.counter"));
  EXPECT_EQ(reg.counter("t.reset.counter"), c);
}
