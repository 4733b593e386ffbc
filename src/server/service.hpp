// The advisor service: request semantics, independent of any transport.
//
// A Service owns the published ModelSnapshot slot, the sharded answer
// cache and a worker pool, and maps one request payload (the JSON text
// of a frame) to one canonical response payload. The network layer
// (net.hpp), the tests and perfbench's traced replay all drive this
// same entry point, so everything observable about the protocol is
// testable without sockets.
//
// Caching: `advise` and `estimate` results are memoized in a
// ShardedCache<std::string> storing the canonical *result* document.
// The key embeds the model fingerprint and the cluster fingerprint
// (docs/SERVER.md §6), so a snapshot swap never needs to invalidate
// anything — entries of the old model simply become unreachable, and
// the bounded shards age them out. This is also what makes hot-swap
// bit-identical to a cold restart: a response is a pure function of
// (request, snapshot identity), whether it came from the cache or from
// a fresh sweep.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/refit.hpp"
#include "obs/fine_hist.hpp"
#include "obs/flight.hpp"
#include "search/cache.hpp"
#include "server/protocol.hpp"
#include "server/snapshot.hpp"
#include "support/thread_annotations.hpp"
#include "support/work_steal.hpp"

namespace hetsched::server {

struct ServiceOptions {
  std::size_t cache_shards = 64;
  std::size_t cache_max_entries_per_shard = 4096;
  /// Worker pool width (0 = hardware concurrency). The pool answers the
  /// requests of a batch that are not cache hits, when there are at
  /// least four of them; everything else runs on the calling thread
  /// (the connection's thread in net.cpp).
  std::size_t threads = 0;
  /// Flight-recorder depth (rounded up to a power of two): how many of
  /// the most recent requests the `flight` op can replay.
  std::size_t flight_capacity = 4096;
  /// Monotone microsecond clock used for flight timestamps, request
  /// wall times, uptime and snapshot age. Null = steady_clock. Tests
  /// (and the golden transcripts in docs/SERVER.md §9) inject a
  /// deterministic counter here so timing fields are byte-stable.
  std::uint64_t (*now_us)() = nullptr;
  /// Online refinement (docs/SERVER.md §4.10). Every `observe` lands in
  /// a bounded refit buffer; the `refit` op (and the background cadence
  /// below) turns the buffered windows into candidate models through
  /// core::RefitEngine and hot-swaps accepted ones. The same buffer is
  /// the calibration ledger (§4.9): `observe` and `health` score each
  /// class window against the published model, and refit.degraded()
  /// decides whether a class flips the `health` status.
  core::RefitOptions refit;
  std::size_t refit_buffer_capacity = 64;  ///< window per model class
  std::size_t refit_buffer_classes = 64;   ///< most classes buffered
  /// Background refit cadence in microseconds; 0 (the default) disables
  /// the thread and leaves refits to the explicit `refit` op.
  std::uint64_t refit_interval_us = 0;
};

/// One refit pass, before anything is published: the canonical `refit`
/// result document and, when the pass changes the model (an accepted
/// refit or a drift downgrade), the snapshot to publish.
struct RefitPass {
  std::string document;
  std::shared_ptr<const ModelSnapshot> publish;  ///< null: nothing changed
  std::size_t accepted = 0;
};

/// Refits `buf` against `snap` with `engine` and applies `drift`, the
/// engine's detect_drift report of the same buffer against the same
/// estimator. Service::refit_now passes the snapshot's fingerprint to
/// detect_drift so observe-time prices are reused; a report computed
/// without it re-prices every observation and yields the same document.
RefitPass refit_pass(const ModelSnapshot& snap,
                     const core::RefitEngine& engine,
                     const core::ObservationBuffer& buf,
                     const core::DriftReport& drift);

/// Transport-independent request handler around a hot-swappable model.
///
/// Thread-safety: every member is safe to call concurrently.
/// handle_payload takes the snapshot slot's mutex only to copy the
/// published pointer, then probes one cache shard; swap_snapshot holds
/// that mutex only to exchange the pointer and releases the displaced
/// snapshot after unlocking, so readers never wait on a model build or
/// teardown.
/// Each connection batches independently (see net.cpp). Cache hits are
/// answered on the calling thread; only the rest of a batch goes to the
/// worker pool, on which concurrent handle_batch calls serialize.
class Service {
 public:
  explicit Service(std::shared_ptr<const ModelSnapshot> snapshot,
                   ServiceOptions options = {});
  /// Stops the background refit thread (when one was started).
  ~Service();

  /// Publishes a new snapshot. In-flight requests finish on the old
  /// one; subsequent requests see the new one. Readers wait at most for
  /// the pointer exchange, never for the old snapshot's teardown.
  /// Nothing is reset: the observation buffer survives (measurements are
  /// ground truth about the cluster), and the calibration statistics are
  /// keyed by the fingerprint of the model that priced each observation,
  /// so a model with new content starts every class at count 0.
  void swap_snapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The currently published snapshot.
  std::shared_ptr<const ModelSnapshot> snapshot() const;

  /// Handler the `reload` op invokes to produce a fresh snapshot
  /// (re-read a model file, refit). Absent handler => `unavailable`.
  /// The handler may throw; the error is reported as `internal`.
  using ReloadHandler =
      std::function<std::shared_ptr<const ModelSnapshot>()>;
  void set_reload_handler(ReloadHandler handler);

  /// Answers one request payload with one canonical response payload
  /// (never throws; every failure becomes an error response).
  std::string handle_payload(const std::string& payload);

  /// Answers a batch of payloads, preserving order: responses are
  /// position-matched to requests (the wire also carries ids, but order
  /// is kept anyway). A batch of fewer than four runs as that many
  /// handle_payload calls, in order. In a larger one every payload is
  /// parsed and probes the answer cache once, on the calling thread,
  /// which answers the hits (and the requests refused before their op
  /// runs); the rest, cache misses and ops the cache does not hold, are
  /// spread over the worker pool when at least four remain, and answered
  /// here otherwise, so their order relative to the hits is not that of
  /// the batch.
  std::vector<std::string> handle_batch(
      const std::vector<std::string>& payloads);

  /// Service-local counters, exposed by the `stats` op. Deterministic
  /// under sequential replay (the golden-transcript test relies on it).
  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t snapshot_swaps = 0;
  };
  Counters counters() const;

  const ServiceOptions& options() const { return options_; }

  // -- live introspection (the metrics/health/flight wire ops) --------------

  /// Transport lifecycle notifications (net.cpp) feeding the `health`
  /// op's open_connections / draining fields.
  void connection_opened();
  void connection_closed();
  void set_draining(bool draining);
  bool draining() const {
    HETSCHED_ATOMIC_DOC(relaxed, "advisory flag: only gates whether new "
                                 "requests are admitted; no data is "
                                 "published through it");
    return draining_.load(std::memory_order_relaxed);
  }

  /// Canonical `flight` result document (hetsched.flight.v1) for the
  /// newest min(max_records, capacity) requests — what the `flight` op
  /// answers and what the daemon writes on SIGUSR1.
  std::string flight_json(std::size_t max_records) const;
  /// Canonical `metrics` result document, process scope (service stats,
  /// per-op latency histograms, and the full registry snapshot).
  std::string metrics_json() const;
  /// Canonical `health` result document.
  std::string health_json() const;

  /// Runs one refit pass over the buffered observations and returns the
  /// canonical `refit` result document (docs/SERVER.md §4.10). Accepted
  /// candidates (and drift downgrades) are published via swap_snapshot.
  /// This is what the `refit` op and the background cadence both call.
  std::string refit_now();

  /// Observations currently buffered for refits (tests, soak checks).
  std::size_t observation_count() const;
  /// A copy of the refit buffer, as the next refit pass would read it.
  core::ObservationBuffer observations() const;

  /// Number of entries in the op name table (index 0 is "?", the
  /// unparseable-request bucket) — the size of the per-op latency
  /// histogram array.
  static constexpr std::size_t kOpTableSize = 12;

 private:
  /// One request from its parse to its answer (service.cpp).
  struct Request;
  /// Counts `payload`, parses it into `r`, resolves its op and, for
  /// `estimate` and `advise`, probes the answer cache. True when that
  /// answered the request (a cache hit or an error); finish() answers
  /// the rest.
  bool start(const std::string& payload, Request& r);
  /// Answers a request start() left open: a cache miss, or an op the
  /// cache does not hold.
  void finish(Request& r);
  /// Records an answered request (error count, per-op wall time, flight
  /// record) and hands back its response.
  std::string record(Request& r);
  std::uint64_t clock_now_us() const;
  std::string stats_result(const ModelSnapshot& snap) const;
  /// The `metrics` result for either scope ("service" or "process").
  std::string metrics_result(const ModelSnapshot& snap,
                             bool process_scope) const;
  std::string health_result(const ModelSnapshot& snap) const;
  /// Buffers one observation with its price and the fingerprint of the
  /// snapshot that made it, and renders the `observe` result: the class
  /// window's statistics under that fingerprint, or "dropped" when the
  /// buffer refuses the sample at its class cap.
  std::string observe_result(const cluster::Config& config, int n,
                             const core::Estimator::Breakdown& bd,
                             std::uint64_t priced_by, double measured);

  ServiceOptions options_ HETSCHED_NOT_GUARDED(
      "set in the constructor, immutable afterwards");
  /// The published snapshot. A plain shared_ptr behind a mutex rather
  /// than std::atomic<std::shared_ptr>: libstdc++ 12's atomic takes an
  /// internal lock on every load anyway, and releases it with a relaxed
  /// operation that orders nothing TSan can see. Readers copy the
  /// pointer under the lock (one reference-count increment).
  mutable std::mutex slot_mu_;
  std::shared_ptr<const ModelSnapshot> slot_ HETSCHED_GUARDED_BY(slot_mu_);
  search::ShardedCache<std::string> cache_ HETSCHED_NOT_GUARDED(
      "internally synchronized (per-shard locks)");
  support::WorkStealingPool pool_ HETSCHED_NOT_GUARDED(
      "internally synchronized");

  std::mutex reload_mu_;
  ReloadHandler reload_ HETSCHED_GUARDED_BY(reload_mu_);

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> swaps_{0};

  obs::flight::Ring flight_ HETSCHED_NOT_GUARDED(
      "seqlock ring with per-slot writer flags, internally synchronized");
  /// Wall-time distribution per wire op, indexed by RequestMeta::op.
  /// Always on (plain members, not registry metrics), so the `metrics`
  /// op serves identical quantiles in both HETSCHED_OBS legs.
  std::array<obs::FineHistogram, kOpTableSize> op_wall_
      HETSCHED_NOT_GUARDED("FineHistogram is internally synchronized");

  std::uint64_t start_us_ HETSCHED_NOT_GUARDED(
      "set once in the constructor, before any server thread exists") = 0;
  std::atomic<std::uint64_t> published_us_{0};
  std::atomic<std::int64_t> open_connections_{0};
  std::atomic<bool> draining_{false};

  /// Refit observation buffer and calibration ledger (`observe`
  /// ingest, `health` and `refit` consumption). Refits copy the buffer
  /// and run the engine outside the lock so a slow solve never stalls
  /// the observe path.
  mutable std::mutex obs_mu_;
  core::ObservationBuffer obs_buf_ HETSCHED_GUARDED_BY(obs_mu_);

  /// Background refit cadence (started only when refit_interval_us > 0).
  std::mutex refit_stop_mu_;
  std::condition_variable refit_stop_cv_;
  std::atomic<bool> refit_stop_{false};
  std::thread refit_thread_ HETSCHED_NOT_GUARDED(
      "started in the constructor, joined in the destructor; no other "
      "access");
};

}  // namespace hetsched::server
