// Request semantics of server::Service against the estimator it wraps:
// estimate/advise answers must match the core layer bit-for-bit, the
// answer cache must be invisible (hit bytes == miss bytes) and counted,
// constraints must filter exactly, errors must carry the documented
// codes, and a snapshot hot-swap must be byte-identical to a cold
// restart on the new model — the central acceptance criterion of
// docs/SERVER.md §5.
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer.hpp"
#include "obs/hooks.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "search/engine.hpp"
#include "server_test_util.hpp"

namespace hetsched::server {
namespace {

namespace json = hetsched::obs::json;

std::string advise_req(int n, int top, const std::string& constraints = "") {
  std::string req = "{\"hsp\":1,\"id\":1,\"op\":\"advise\",\"n\":" +
                    std::to_string(n) + ",\"top\":" + std::to_string(top);
  if (!constraints.empty()) req += ",\"constraints\":" + constraints;
  return req + "}";
}

/// Extracts result.best[*] (label, t) pairs from an advise response.
std::vector<std::pair<std::string, double>> best_of(
    const std::string& response) {
  const json::Value doc = json::parse(response);
  EXPECT_TRUE(doc.find("ok") && doc.find("ok")->as_bool()) << response;
  std::vector<std::pair<std::string, double>> out;
  for (const auto& e : doc.find("result")->find("best")->as_array())
    out.emplace_back(e.find("label")->as_string(),
                     e.find("t")->as_number());
  return out;
}

/// The error code of a failed response; "" (after a failed assertion
/// that prints the response) when it carries none.
std::string error_code(const std::string& response) {
  const json::Value doc = json::parse(response);
  EXPECT_TRUE(doc.find("ok") && !doc.find("ok")->as_bool()) << response;
  const json::Value* error = doc.find("error");
  const json::Value* code = error != nullptr ? error->find("code") : nullptr;
  return code != nullptr ? code->as_string() : std::string();
}

TEST(ServiceSemantics, AdviseMatchesSerialRankAll) {
  Service service(testutil::reference_snapshot());
  const core::Estimator est = testutil::make_estimator(1.0);
  const core::ConfigSpace space = testutil::reference_space();
  for (const int n : {1000, 2000, 5000}) {
    const auto ranked = core::rank_all(est, space, n);
    const auto best = best_of(service.handle_payload(advise_req(n, 5)));
    ASSERT_EQ(best.size(), std::min<std::size_t>(5, ranked.size()));
    for (std::size_t i = 0; i < best.size(); ++i) {
      EXPECT_EQ(best[i].first, ranked[i].config.to_string()) << "n=" << n;
      EXPECT_EQ(best[i].second, ranked[i].estimate) << "n=" << n;
    }
  }
}

TEST(ServiceSemantics, PrunedAdviseMatchesTheDocumentRenderedFromRankAll) {
  // Three kinds of four PEs at m 1..4: 17^3 rows (17^2 with a kind
  // excluded), more than one batch, so the search walks the tree and
  // cuts subtrees, under a tight process limit too. Its answer must be
  // the bytes rendered from the serial oracle.
  cluster::ClusterSpec spec;
  std::vector<core::ConfigSpace::KindRange> ranges;
  core::EstimatorOptions opts;
  opts.check_memory = false;
  for (const char* name : {"k0", "k1", "k2"}) {
    cluster::PeKind kind = cluster::pentium2_400();
    kind.name = name;
    for (int i = 0; i < 4; ++i)
      spec.nodes.push_back(cluster::NodeSpec{kind, 1, 768 * kMiB});
    ranges.push_back(core::ConfigSpace::KindRange{name, 1, 4, 1, 4, true});
  }
  core::Estimator est(spec, opts);
  for (int k = 0; k < 3; ++k) {
    const std::string name = "k" + std::to_string(k);
    const double work = 300.0 * (1 + 2 * k);
    for (int m = 1; m <= 4; ++m) {
      est.add_pt(name, m,
                 testutil::fitted_pt(work * (1 + 0.07 * m), 1.0 + 0.5 * k));
      est.add_nt(core::NtKey{name, 1, m},
                 core::NtModel({0, 0, 0, work * (1 + 0.1 * m)}, {0, 0, 0.6}));
    }
  }
  const core::ConfigSpace space = core::ConfigSpace::ranges(ranges);
  const auto snap = std::make_shared<const ModelSnapshot>(est, space);
  Service service(snap);
  for (const int n : {1200, 4800}) {
    for (const auto& [constraints, limit] :
         {std::pair<std::string, int>{"", 0},
          {"{\"exclude\":[\"k1\"]}", 0},
          {"{\"max_total_procs\":20}", 20},
          {"{\"max_total_procs\":10}", 10}}) {
      search::Query q;
      q.top = 4;
      if (constraints.find("k1") != std::string::npos) q.exclude = {"k1"};
      q.max_total_procs = limit;
      const search::TopK pruned =
          search::top_k(est, space, *snap->batch_for(n), q);
      EXPECT_GT(pruned.stats.pruned, 0u) << constraints;

      std::vector<core::Ranked> want;
      for (const auto& r : core::rank_all(est, space, n)) {
        const bool excluded =
            !q.exclude.empty() &&
            r.config.to_string().find("k1") != std::string::npos;
        if (excluded || (q.max_total_procs != 0 &&
                         r.config.total_procs() > q.max_total_procs))
          continue;
        want.push_back(r);
      }
      std::string doc = "{\"n\":";
      doc += json::json_int(n);
      doc += ",\"candidates\":";
      doc += json::json_int(static_cast<std::int64_t>(space.size()));
      doc += ",\"covered\":";
      doc += json::json_int(static_cast<std::int64_t>(want.size()));
      doc += ",\"best\":[";
      for (std::size_t i = 0; i < std::min<std::size_t>(4, want.size()); ++i) {
        if (i != 0) doc += ',';
        doc += "{\"label\":";
        doc += json::json_quote(want[i].config.to_string());
        doc += ",\"config\":[";
        for (std::size_t u = 0; u < want[i].config.usage.size(); ++u) {
          const auto& usage = want[i].config.usage[u];
          if (u != 0) doc += ',';
          doc += '[';
          doc += json::json_quote(usage.kind);
          doc += ',';
          doc += json::json_int(usage.pes);
          doc += ',';
          doc += json::json_int(usage.procs_per_pe);
          doc += ']';
        }
        doc += "],\"t\":";
        doc += json::json_number(want[i].estimate);
        doc += '}';
      }
      doc += "]}";
      EXPECT_EQ(service.handle_payload(advise_req(n, 4, constraints)),
                "{\"hsp\":1,\"id\":1,\"ok\":true,\"result\":" + doc + "}")
          << "n=" << n << " constraints=" << constraints;
    }
  }
}

TEST(ServiceSemantics, ConfigsTheClusterCannotRunAreBadRequests) {
  // The reference cluster has two PEs of each kind. A kind named twice
  // or asking for more PEs than the cluster has is a malformed request,
  // for estimate and observe alike, with or without the memory bin
  // (whose placement used to fail deep in the estimator as `internal`).
  // A kind the cluster lacks stays `uncovered` (§9 id 10).
  core::EstimatorOptions paging;
  paging.check_memory = true;
  core::Estimator with_memory(testutil::reference_spec(), paging);
  const core::Estimator reference = testutil::make_estimator(1.0);
  for (const auto& e : reference.nt_entries())
    with_memory.add_nt(e.key, e.model);
  for (const auto& e : reference.pt_entries())
    with_memory.add_pt(e.kind, e.m, e.model);
  for (const auto& snap :
       {testutil::reference_snapshot(),
        std::make_shared<const ModelSnapshot>(with_memory,
                                              testutil::reference_space())}) {
    Service service(snap);
    for (const std::string op : {"estimate", "observe"}) {
      const auto req = [&](const std::string& config) {
        return "{\"hsp\":1,\"id\":1,\"op\":\"" + op +
               "\",\"n\":2000,\"measured\":100.0,\"config\":" + config + "}";
      };
      EXPECT_EQ(error_code(service.handle_payload(req("[[\"alpha\",3,1]]"))),
                "bad-request")
          << op;
      EXPECT_EQ(error_code(service.handle_payload(
                    req("[[\"beta\",1,1],[\"alpha\",1,1],[\"beta\",1,1]]"))),
                "bad-request")
          << op;
      EXPECT_EQ(error_code(service.handle_payload(
                    req("[[\"alpha\",1,1],[\"alpha\",1,1]]"))),
                "bad-request")
          << op;
      EXPECT_EQ(error_code(service.handle_payload(req("[[\"gamma\",5,1]]"))),
                "uncovered")
          << op;
      const json::Value ok =
          json::parse(service.handle_payload(req("[[\"alpha\",2,1]]")));
      EXPECT_TRUE(ok.find("ok")->as_bool()) << op;
    }
  }
}

TEST(ServiceSemantics, EstimateMatchesEstimatorExactly) {
  Service service(testutil::reference_snapshot());
  const core::Estimator est = testutil::make_estimator(1.0);
  const std::string resp = service.handle_payload(
      "{\"hsp\":1,\"id\":\"e1\",\"op\":\"estimate\",\"n\":1600,"
      "\"config\":[[\"alpha\",2,1],[\"beta\",1,2]]}");
  const json::Value doc = json::parse(resp);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << resp;
  cluster::Config config;
  config.usage.push_back(cluster::KindUsage{"alpha", 2, 1});
  config.usage.push_back(cluster::KindUsage{"beta", 1, 2});
  const auto* result = doc.find("result");
  EXPECT_EQ(result->find("t")->as_number(), est.estimate(config, 1600));
  EXPECT_EQ(result->find("label")->as_string(), config.to_string());
  EXPECT_EQ(result->find("provenance")->as_string(), "measured");
}

TEST(ServiceSemantics, CacheHitBytesEqualMissBytesAndAreCounted) {
  Service service(testutil::reference_snapshot());
  const std::string req = advise_req(1800, 3);
  const std::string cold = service.handle_payload(req);
  const Service::Counters after_miss = service.counters();
  EXPECT_EQ(after_miss.cache_misses, 1u);
  EXPECT_EQ(after_miss.cache_hits, 0u);

  const std::string warm = service.handle_payload(req);
  EXPECT_EQ(warm, cold);  // byte-identical, not merely equivalent
  const Service::Counters after_hit = service.counters();
  EXPECT_EQ(after_hit.cache_hits, 1u);
  EXPECT_EQ(after_hit.cache_misses, 1u);
  EXPECT_EQ(after_hit.requests, 2u);
  EXPECT_EQ(after_hit.errors, 0u);
}

TEST(ServiceSemantics, ExcludeConstraintFiltersKinds) {
  Service service(testutil::reference_snapshot());
  const auto best = best_of(service.handle_payload(
      advise_req(1500, 8, "{\"exclude\":[\"beta\"]}")));
  ASSERT_FALSE(best.empty());
  for (const auto& [label, t] : best)
    EXPECT_EQ(label.find("beta"), std::string::npos) << label;
}

TEST(ServiceSemantics, MaxTotalProcsConstraintBoundsAnswers) {
  Service service(testutil::reference_snapshot());
  const core::Estimator est = testutil::make_estimator(1.0);
  const core::ConfigSpace space = testutil::reference_space();
  const auto best = best_of(service.handle_payload(
      advise_req(1500, 8, "{\"max_total_procs\":2}")));
  ASSERT_FALSE(best.empty());
  // Cross-check against a serial filtered sweep.
  std::vector<std::pair<double, std::string>> expect;
  for (const auto& cfg : space.all()) {
    if (cfg.total_procs() > 2 || !est.covers(cfg)) continue;
    expect.emplace_back(est.estimate(cfg, 1500), cfg.to_string());
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  ASSERT_EQ(best.size(), std::min<std::size_t>(8, expect.size()));
  for (std::size_t i = 0; i < best.size(); ++i) {
    EXPECT_EQ(best[i].first, expect[i].second);
    EXPECT_EQ(best[i].second, expect[i].first);
  }
}

TEST(ServiceSemantics, ImpossibleConstraintIsUncovered) {
  Service service(testutil::reference_snapshot());
  EXPECT_EQ(error_code(service.handle_payload(advise_req(
                1500, 1, "{\"exclude\":[\"alpha\",\"beta\"]}"))),
            "uncovered");
}

TEST(ServiceSemantics, ErrorCodesMatchTheSpec) {
  Service service(testutil::reference_snapshot());
  EXPECT_EQ(error_code(service.handle_payload("{nope")), "bad-json");
  EXPECT_EQ(error_code(service.handle_payload("{\"op\":\"ping\"}")),
            "bad-request");  // missing hsp
  EXPECT_EQ(error_code(service.handle_payload("{\"hsp\":2,\"op\":\"ping\"}")),
            "unsupported-version");
  EXPECT_EQ(error_code(service.handle_payload("{\"hsp\":1,\"op\":\"warp\"}")),
            "unknown-op");
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"op\":\"advise\",\"n\":0}")),
            "bad-request");
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"op\":\"advise\",\"n\":1000,\"top\":10000}")),
            "bad-request");  // top beyond 64
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"op\":\"reload\"}")),
            "unavailable");  // no reload handler installed
  const Service::Counters c = service.counters();
  EXPECT_EQ(c.errors, 7u);
  EXPECT_EQ(c.requests, 7u);
}

TEST(ServiceSemantics, IdIsEchoedInCanonicalForm) {
  Service service(testutil::reference_snapshot());
  EXPECT_EQ(service.handle_payload("{\"hsp\":1,\"id\":\"abc\",\"op\":"
                                   "\"ping\"}"),
            "{\"hsp\":1,\"id\":\"abc\",\"ok\":true,\"result\":{}}");
  EXPECT_EQ(service.handle_payload("{\"hsp\":1,\"op\":\"ping\"}"),
            "{\"hsp\":1,\"id\":null,\"ok\":true,\"result\":{}}");
  EXPECT_EQ(service.handle_payload("{\"hsp\":1,\"id\":7,\"op\":\"ping\"}"),
            "{\"hsp\":1,\"id\":7,\"ok\":true,\"result\":{}}");
}

TEST(ServiceSemantics, HelloNegotiatesVersions) {
  Service service(testutil::reference_snapshot());
  const std::string ok = service.handle_payload(
      "{\"hsp\":1,\"id\":1,\"op\":\"hello\",\"versions\":[1,2]}");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(ok.find("\"version\":1"), std::string::npos);
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"id\":1,\"op\":\"hello\",\"versions\":[2,3]}")),
            "unsupported-version");
}

TEST(ServiceSemantics, ReloadSwapsThroughTheHandler) {
  Service service(testutil::reference_snapshot());
  service.set_reload_handler([] { return testutil::alternate_snapshot(); });
  const std::uint64_t before = service.counters().snapshot_swaps;
  const std::string resp =
      service.handle_payload("{\"hsp\":1,\"id\":1,\"op\":\"reload\"}");
  EXPECT_NE(resp.find("\"swapped\":true"), std::string::npos);
  EXPECT_EQ(service.counters().snapshot_swaps, before + 1);
  EXPECT_EQ(service.snapshot()->fingerprint(),
            testutil::alternate_snapshot()->fingerprint());
}

TEST(ServiceSemantics, HotSwapIsByteIdenticalToColdRestart) {
  // Swapped service: serves the reference model (and caches answers on
  // it), then hot-swaps to the alternate model under a warm cache.
  Service swapped(testutil::reference_snapshot());
  const std::vector<std::string> requests = {
      advise_req(1200, 4),
      advise_req(2400, 2, "{\"exclude\":[\"alpha\"]}"),
      "{\"hsp\":1,\"id\":9,\"op\":\"estimate\",\"n\":1200,"
      "\"config\":[[\"alpha\",1,2]]}",
      "{\"hsp\":1,\"id\":10,\"op\":\"hello\"}",
  };
  for (const auto& r : requests) (void)swapped.handle_payload(r);
  for (const auto& r : requests) (void)swapped.handle_payload(r);  // warm
  swapped.swap_snapshot(testutil::alternate_snapshot());

  // Cold service: born on the alternate model, empty cache.
  Service cold(testutil::alternate_snapshot());
  for (const auto& r : requests) {
    const std::string after_swap = swapped.handle_payload(r);
    const std::string from_cold = cold.handle_payload(r);
    EXPECT_EQ(after_swap, from_cold) << r;
  }
  // And the swapped service's *cached* answers (second pass) match too.
  for (const auto& r : requests)
    EXPECT_EQ(swapped.handle_payload(r), cold.handle_payload(r)) << r;
}

// Regression test for the stale-calibration bug (docs/SERVER.md §5):
// a degraded verdict earned by the *old* model must not survive a
// `reload` to different content and pin `health` on "degraded" against
// a model that never produced those errors. The ledger scores each
// class only by the observations the published model priced.
TEST(ServiceSemantics, ReloadResetsCalibrationState) {
  ServiceOptions options;
  options.refit.drift_min_count = 4;  // flip the ledger with few samples
  Service service(testutil::reference_snapshot(), options);
  service.set_reload_handler([] { return testutil::alternate_snapshot(); });

  // Drive one class to degraded: 4 observations at twice the predicted
  // wall time (|rel err| 0.5 > the 0.25 threshold).
  const std::string observe_hot =
      "{\"hsp\":1,\"id\":1,\"op\":\"observe\",\"n\":2000,"
      "\"config\":[[\"beta\",1,1]],\"measured\":";
  for (int i = 0; i < 4; ++i) {
    const std::string resp = service.handle_payload(observe_hot + "1189.4}");
    EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
  }
  json::Value degraded = json::parse(service.health_json());
  ASSERT_EQ(degraded.find("status")->as_string(), "degraded");
  ASSERT_EQ(degraded.find("calib")->find("classes")->as_object().count(
                "nt:beta/1/1"),
            1u);

  // The reload publishes a model with new content; its health must not
  // inherit the old model's verdict.
  const std::string reload = service.handle_payload(
      "{\"hsp\":1,\"id\":2,\"op\":\"reload\"}");
  EXPECT_NE(reload.find("\"swapped\":true"), std::string::npos) << reload;
  json::Value fresh = json::parse(service.health_json());
  EXPECT_EQ(fresh.find("status")->as_string(), "ok");
  EXPECT_TRUE(fresh.find("calib")->find("classes")->as_object().empty());

  // And the new model earns its own verdict from its own observations.
  for (int i = 0; i < 4; ++i)
    (void)service.handle_payload(observe_hot + "3000.0}");
  EXPECT_EQ(json::parse(service.health_json()).find("status")->as_string(),
            "degraded");
}

/// An `estimate` of one fixed two-kind configuration at size `n`.
std::string estimate_req(const std::string& id, int n) {
  return "{\"hsp\":1,\"id\":" + id + ",\"op\":\"estimate\",\"n\":" +
         std::to_string(n) +
         ",\"config\":[[\"alpha\",2,1],[\"beta\",1,2]]}";
}

std::uint64_t pool_calls() {
  return obs::snapshot().counter_value("pool.parallel_for_calls");
}

TEST(ServiceSemantics, BatchAnswersCacheHitsWithoutThePool) {
  ServiceOptions opts;
  opts.threads = 2;
  Service service(testutil::reference_snapshot(), opts);
  Service reference(testutil::reference_snapshot());
  std::vector<std::string> reqs, want;
  for (int i = 0; i < 16; ++i) {
    reqs.push_back(estimate_req(std::to_string(i), 1000 + 100 * i));
    want.push_back(reference.handle_payload(reqs.back()));
  }
  const std::uint64_t before = pool_calls();
  EXPECT_EQ(service.handle_batch(reqs), want);  // 16 misses
  const std::uint64_t after_misses = pool_calls();
  EXPECT_EQ(service.handle_batch(reqs), want);  // 16 hits
  const std::uint64_t after_hits = pool_calls();
  EXPECT_EQ(service.counters().cache_misses, 16u);
  EXPECT_EQ(service.counters().cache_hits, 16u);
#if HETSCHED_OBS_ACTIVE
  EXPECT_EQ(after_misses, before + 1);  // the misses fan out
  EXPECT_EQ(after_hits, after_misses);  // the hits stay on this thread
#else
  EXPECT_EQ(after_hits, before);  // no counters in this build
  (void)after_misses;
#endif
}

TEST(ServiceSemantics, MixedBatchCountsEachRequestOnce) {
  ServiceOptions opts;
  opts.threads = 2;
  Service service(testutil::reference_snapshot(), opts);
  Service reference(testutil::reference_snapshot());
  for (int i = 0; i < 4; ++i)  // the hits-to-be, cached
    (void)service.handle_payload(estimate_req("0", 1000 + 100 * i));
  const auto recorded = [&service] {
    const json::Value health = json::parse(service.health_json());
    return health.find("flight")->find("recorded")->as_number();
  };
  const Service::Counters c0 = service.counters();
  const double flight0 = recorded();
  const std::vector<std::string> reqs = {
      estimate_req("1", 1000),       estimate_req("2", 5000),  // hit, miss
      "{\"hsp\":1,\"id\":3,\"op\":\"ping\"}", estimate_req("4", 1100),
      "this is not json",             estimate_req("6", 5100),
      estimate_req("7", 1200),        estimate_req("8", 5200),
      estimate_req("9", 1300)};  // 4 hits, 3 misses, a ping, bad JSON
  std::vector<std::string> want;
  for (const std::string& r : reqs) want.push_back(reference.handle_payload(r));
  EXPECT_EQ(service.handle_batch(reqs), want);
  const Service::Counters c1 = service.counters();
  EXPECT_EQ(c1.requests, c0.requests + 9);
  EXPECT_EQ(c1.cache_hits, c0.cache_hits + 4);
  EXPECT_EQ(c1.cache_misses, c0.cache_misses + 3);
  EXPECT_EQ(c1.errors, c0.errors + 1);
  EXPECT_EQ(recorded(), flight0 + 9);
}

TEST(ServiceSemantics, BatchPreservesOrderAcrossThePool) {
  Service service(testutil::reference_snapshot());  // 64 takes the pool
  std::vector<std::string> reqs;
  for (int i = 0; i < 64; ++i)
    reqs.push_back("{\"hsp\":1,\"id\":" + std::to_string(i) +
                   ",\"op\":\"ping\"}");
  const std::vector<std::string> resps = service.handle_batch(reqs);
  ASSERT_EQ(resps.size(), reqs.size());
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(resps[static_cast<std::size_t>(i)],
              "{\"hsp\":1,\"id\":" + std::to_string(i) +
                  ",\"ok\":true,\"result\":{}}");
}

}  // namespace
}  // namespace hetsched::server
