// Reproduces Figs 12-15: NS-model correlations at N = 1600 (in range:
// tolerable) and N = 6400 (extrapolated: residual deviation that the
// linear adjustment can no longer compensate). A last phase serves the
// NS model through server::Service, refines it online from a fixed
// writer of simulator-timed runs, and records the refined model's
// correlations as family NS-refit, so the accuracy gate covers the
// online refit as well as the campaign fits.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "server/service.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

using namespace hetsched;

namespace {

/// The writer's rounds, observes per round and noise salt: production
/// runs timed by a campaign independent of the one the model was fitted
/// on.
constexpr int kWriterRounds = 32;
constexpr int kWriterObserves = 256;
constexpr std::uint64_t kProductionSalt = 2;

void expect_ok(const std::string& response) {
  HETSCHED_CHECK(obs::json::parse(response).find("ok")->as_bool(),
                 "NS-refit writer: request refused: " + response);
}

/// Serves `est` and feeds it the writer: each round observes homogeneous
/// paper-space runs at N = 2000-8000, then refits. Returns the model the
/// service publishes at the end.
core::Estimator refit_online(bench::Campaign& c, const core::Estimator& est) {
  server::Service service(
      std::make_shared<const server::ModelSnapshot>(est, c.space));
  std::vector<cluster::Config> configs;
  for (const cluster::Config& config : c.space.all())
    if (config.usage.size() == 1) configs.push_back(config);
  measure::Runner production(c.spec, 64, kProductionSalt);
  Rng rng(20040426);
  for (int round = 0; round < kWriterRounds; ++round) {
    for (int i = 0; i < kWriterObserves; ++i) {
      const cluster::Config& config =
          configs[rng.uniform_index(configs.size())];
      const cluster::KindUsage& u = config.usage.front();
      const int n = 2000 + 500 * static_cast<int>(rng.uniform_index(13));
      expect_ok(service.handle_payload(
          "{\"hsp\":1,\"id\":1,\"op\":\"observe\",\"n\":" + std::to_string(n) +
          ",\"config\":[[" + obs::json::json_quote(u.kind) + "," +
          std::to_string(u.pes) + "," + std::to_string(u.procs_per_pe) +
          "]],\"measured\":" +
          obs::json::json_number(production.measure(config, n).wall) + "}"));
    }
    expect_ok(service.handle_payload("{\"hsp\":1,\"id\":2,\"op\":\"refit\"}"));
  }
  return service.snapshot()->estimator();
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_fig12_15_ns_correlation");
  std::cout << "Paper Figs 12-15: NS fits N = 1600 tolerably; at N = 6400 "
               "the extrapolation deviates beyond what a linear transform "
               "can repair.\n";
  bench::Campaign c;
  core::Estimator est = c.build(measure::ns_plan());

  est.options().use_adjustment = false;
  bench::set_family("NS-raw");
  bench::print_correlation(c, est, 1600,
                           "Fig 12 — NS before adjustment (N = 1600)");
  bench::print_correlation(c, est, 6400,
                           "Fig 14 — NS before adjustment (N = 6400)");
  est.options().use_adjustment = true;
  bench::set_family("NS");
  bench::print_correlation(c, est, 1600,
                           "Fig 13 — NS after adjustment (N = 1600)");
  bench::print_correlation(c, est, 6400,
                           "Fig 15 — NS after adjustment (N = 6400)");

  const core::Estimator refined = refit_online(c, est);
  bench::set_family("NS-refit");
  bench::print_correlation(
      c, refined, 1600,
      "NS after " + std::to_string(kWriterRounds) +
          " online refits (N = 1600; writer runs at N = 2000-8000)");
  bench::print_correlation(
      c, refined, 6400,
      "NS after " + std::to_string(kWriterRounds) +
          " online refits (N = 6400; writer runs at N = 2000-8000)");
  return 0;
}
