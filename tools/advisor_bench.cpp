// advisor_bench — load harness for the advisor service (docs/SERVER.md §8).
//
//   advisor_bench [--quick] [--connect=ADDR] [--plan=basic|nl|ns]
//                 [--mpi=121|122] [--n=N] [--cached=COUNT] [--cold=COUNT]
//                 [--batch=K] [--report-out=FILE] ...
//
// Four in-process phases drive server::Service directly (no sockets),
// so the numbers measure the service itself:
//
//   cached  — the same `advise` request repeated COUNT times after one
//             warming call: every iteration is a sharded-cache hit.
//             Target: >= 100k queries/s.
//   cold    — COUNT `advise` requests with distinct cache keys (a
//             varying max_total_procs constraint), so every one runs
//             search::top_k (one batched sweep of the paper space).
//             Target: >= 1k queries/s.
//   observe — calibration ingest: estimate + watchdog fold + refit
//             buffer append per request (docs/SERVER.md §4.9–4.10).
//   refit   — full online-refinement passes over the buffered window
//             (candidate fits, holdout scoring, publish decision).
//
// With --connect=unix:PATH or --connect=HOST:PORT a third phase
// round-trips pipelined batches of cached requests through a running
// hetsched_advisord, measuring the transport stack end to end.
//
// Every phase records `server.load.<phase>.{qps,p50_wall_s,p99_wall_s}`
// run-report scalars (latencies timed locally, so the harness works
// with -DHETSCHED_OBS=OFF too); CI gates them with `hetsched_report
// diff` against bench/baselines — qps may not collapse below 1/10 of
// baseline, p50/p99 may not exceed 10x (docs/OBSERVABILITY.md §8).
//
// Percentiles come from obs::FineHistogram — the same sub-bucketed
// histogram the server's `metrics` op serves — so the harness benches
// the estimator it reports with, and never materializes a per-request
// latency vector.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "obs/fine_hist.hpp"

#include "core/model_builder.hpp"
#include "measure/plan.hpp"
#include "measure/runner.hpp"
#include "obs/io.hpp"
#include "obs/report.hpp"
#include "server/client.hpp"
#include "server/service.hpp"
#include "server/snapshot.hpp"

using namespace hetsched;
using Clock = std::chrono::steady_clock;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: advisor_bench [--quick] [--connect=ADDR] "
               "[--plan=basic|nl|ns] [--mpi=121|122] [--n=N] "
               "[--cached=COUNT] [--cold=COUNT] [--batch=K] %s\n",
               obs::cli_help());
  return 2;
}

std::string advise_request(long long id, int n, int top,
                           int max_total_procs) {
  std::string req = "{\"hsp\":1,\"id\":" + std::to_string(id) +
                    ",\"op\":\"advise\",\"n\":" + std::to_string(n) +
                    ",\"top\":" + std::to_string(top);
  if (max_total_procs > 0)
    req += ",\"constraints\":{\"max_total_procs\":" +
           std::to_string(max_total_procs) + "}";
  return req + "}";
}

struct PhaseResult {
  double qps = 0, p50 = 0, p99 = 0;
  std::size_t count = 0;
};

/// Runs `count` iterations of `one(i)`, timing each, and reports
/// throughput plus latency percentiles.
template <typename Fn>
PhaseResult run_phase(std::size_t count, Fn&& one) {
  obs::FineHistogram hist;
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    one(i);
    hist.record(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - begin).count();
  PhaseResult res;
  res.count = count;
  res.qps = wall > 0 ? static_cast<double>(count) / wall : 0;
  res.p50 = hist.quantile(0.5);
  res.p99 = hist.quantile(0.99);
  return res;
}

void report(const std::string& phase, const PhaseResult& r) {
  auto& rec = obs::report::Recorder::instance();
  rec.set_scalar("server.load." + phase + ".qps", r.qps);
  rec.set_scalar("server.load." + phase + ".p50_wall_s", r.p50);
  rec.set_scalar("server.load." + phase + ".p99_wall_s", r.p99);
  std::printf("  %-7s %9zu queries  %12.0f q/s  p50 %.3e s  p99 %.3e s\n",
              phase.c_str(), r.count, r.qps, r.p50, r.p99);
}

void check_ok(const std::string& response, const char* phase) {
  if (response.find("\"ok\":true") == std::string::npos) {
    std::fprintf(stderr, "advisor_bench: %s request failed: %s\n", phase,
                 response.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_name = "ns", mpi = "122", connect;
  int n = 6400;
  std::size_t cached_count = 200000, cold_count = 2000, batch = 64;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs::consume_arg(arg))
      continue;
    else if (arg == "--quick")
      quick = true;
    else if (arg.rfind("--connect=", 0) == 0)
      connect = arg.substr(10);
    else if (arg.rfind("--plan=", 0) == 0)
      plan_name = arg.substr(7);
    else if (arg.rfind("--mpi=", 0) == 0)
      mpi = arg.substr(6);
    else if (arg.rfind("--n=", 0) == 0)
      n = std::atoi(arg.c_str() + 4);
    else if (arg.rfind("--cached=", 0) == 0)
      cached_count = static_cast<std::size_t>(std::atol(arg.c_str() + 9));
    else if (arg.rfind("--cold=", 0) == 0)
      cold_count = static_cast<std::size_t>(std::atol(arg.c_str() + 7));
    else if (arg.rfind("--batch=", 0) == 0)
      batch = static_cast<std::size_t>(std::atol(arg.c_str() + 8));
    else
      return usage();
  }
  if (plan_name != "basic" && plan_name != "nl" && plan_name != "ns")
    return usage();
  if (n < 400 || n > 20000 || batch == 0) return usage();
  if (quick) {
    cached_count = std::min<std::size_t>(cached_count, 20000);
    cold_count = std::min<std::size_t>(cold_count, 200);
  }

  auto& rec = obs::report::Recorder::instance();
  rec.set_bench("advisor_bench");
  rec.set_family("server.load");

  try {
    std::printf("advisor_bench: fitting %s plan model...\n",
                plan_name.c_str());
    const cluster::ClusterSpec spec = cluster::paper_cluster(
        mpi == "121" ? cluster::mpich_121() : cluster::mpich_122());
    measure::MeasurementPlan plan = measure::ns_plan();
    if (plan_name == "basic") plan = measure::basic_plan();
    if (plan_name == "nl") plan = measure::nl_plan();
    measure::Runner runner(spec);
    core::Estimator est = core::ModelBuilder(spec).build(runner.run_plan(plan));
    auto snap = std::make_shared<const server::ModelSnapshot>(
        std::move(est), core::ConfigSpace::paper_eval());
    server::Service service(snap);

    std::printf("advisor_bench: in-process phases (n=%d, %zu candidates)\n",
                n, service.snapshot()->candidates());

    // Warm: build the BatchEstimator for n and seed the cache entry the
    // cached phase will hit.
    const std::string warm_req = advise_request(0, n, 3, 0);
    check_ok(service.handle_payload(warm_req), "warm");

    const PhaseResult cached = run_phase(cached_count, [&](std::size_t i) {
      check_ok(service.handle_payload(advise_request(
                   static_cast<long long>(i + 1), n, 3, 0)),
               "cached");
    });
    report("cached", cached);

    // Distinct max_total_procs values give every request a distinct
    // cache key, so each one pays a search (the constraint exceeds the
    // cluster's total PE count, so the answer set is unchanged).
    const PhaseResult cold = run_phase(cold_count, [&](std::size_t i) {
      check_ok(service.handle_payload(
                   advise_request(static_cast<long long>(i), n, 1,
                                  1000 + static_cast<int>(i))),
               "cold");
    });
    report("cold", cold);

    // Refit-path phases (docs/SERVER.md §4.10): `observe` ingest —
    // one estimate plus the watchdog fold plus the buffer append —
    // then full `refit` passes (candidate fit, holdout scoring,
    // publish decision) over the buffered window. The measurements sit
    // 5% off the model so the first pass exercises the accept+swap
    // path and the rest the steady no-churn state.
    const std::string kind = spec.nodes.front().kind.name;
    int obs_ns[8];
    double obs_pred[8];
    for (int j = 0; j < 8; ++j) {
      obs_ns[j] = 400 * (j + 1);
      const std::string resp = service.handle_payload(
          "{\"hsp\":1,\"id\":0,\"op\":\"estimate\",\"n\":" +
          std::to_string(obs_ns[j]) + ",\"config\":[[\"" + kind +
          "\",1,1]]}");
      check_ok(resp, "observe warm");
      const std::size_t at = resp.find("\"t\":");
      obs_pred[j] = std::atof(resp.c_str() + at + 4);
    }
    const PhaseResult observed = run_phase(cold_count, [&](std::size_t i) {
      const int j = static_cast<int>(i % 8);
      check_ok(service.handle_payload(
                   "{\"hsp\":1,\"id\":" + std::to_string(i) +
                   ",\"op\":\"observe\",\"n\":" + std::to_string(obs_ns[j]) +
                   ",\"config\":[[\"" + kind + "\",1,1]],\"measured\":" +
                   server::json_number(obs_pred[j] * 1.05) + "}"),
               "observe");
    });
    report("observe", observed);
    const std::size_t refit_count = quick ? 20 : 200;
    const PhaseResult refit = run_phase(refit_count, [&](std::size_t i) {
      check_ok(service.handle_payload("{\"hsp\":1,\"id\":" +
                                      std::to_string(i) +
                                      ",\"op\":\"refit\"}"),
               "refit");
    });
    report("refit", refit);

    if (!connect.empty()) {
      std::printf("advisor_bench: socket phase against %s (batch=%zu)\n",
                  connect.c_str(), batch);
      // Flushed: server_smoke_check starts its health probe on this line.
      std::fflush(stdout);
      server::Client client(connect);
      check_ok(client.roundtrip(warm_req), "socket warm");
      const std::size_t rounds =
          std::max<std::size_t>(1, cached_count / (batch * 10));
      std::vector<std::string> reqs(batch);
      std::size_t sent = 0;
      obs::FineHistogram lat;
      const auto begin = Clock::now();
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t b = 0; b < batch; ++b)
          reqs[b] = advise_request(static_cast<long long>(sent++), n, 3, 0);
        const auto t0 = Clock::now();
        const std::vector<std::string> responses =
            client.roundtrip_batch(reqs);
        const double dt =
            std::chrono::duration<double>(Clock::now() - t0).count();
        for (const std::string& resp : responses) check_ok(resp, "socket");
        lat.record(dt / static_cast<double>(batch));
      }
      const double wall =
          std::chrono::duration<double>(Clock::now() - begin).count();
      PhaseResult sock;
      sock.count = sent;
      sock.qps = wall > 0 ? static_cast<double>(sent) / wall : 0;
      sock.p50 = lat.quantile(0.5);
      sock.p99 = lat.quantile(0.99);
      report("socket", sock);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "advisor_bench: fatal: %s\n", e.what());
    return 1;
  }
  obs::flush_outputs();
  return 0;
}
