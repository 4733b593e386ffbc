// Sharded memoization caches for pure query answers.
//
// Pricing a candidate is pure: the estimate depends only on the model
// set, the configuration and the problem size. Repeated sweeps over the
// same space — capacity planning binary searches, the Tables 4/7/9
// evaluation harness, every `rank_all` a CLI session issues, every
// query the advisor server answers — therefore re-derive identical
// numbers, and the fix (cf. open-lmake's memoized ETA bookkeeping) is
// to cache them keyed on what the answer depends on.
//
// Two layers live here:
//
//  * `ShardedCache<V>` — the generic machinery: a string-keyed map of
//    immutable payloads spread over independently locked shards, with
//    capacity-bounded eviction and consistent-snapshot statistics. The
//    search engine instantiates it with `Seconds` (one estimate per
//    config); the advisor server (src/server) instantiates it with
//    `std::string` (one serialized result document per request key).
//  * `EstimateCache` — the engine's `(config, n) → estimate` cache,
//    additionally *bound to an estimator epoch*: a content fingerprint
//    of the model set and options. Rebinding with a different
//    fingerprint (models refitted, an option flipped) drops every
//    entry, so a stale model can never serve an estimate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/estimator.hpp"
#include "support/thread_annotations.hpp"
#include "support/units.hpp"

namespace hetsched::search {

/// Content fingerprint of an estimator: options, cluster memory geometry,
/// and every N-T / P-T / adjustment coefficient. Any rebuild that changes
/// a prediction changes the fingerprint.
///
/// Complexity: O(model count); called once per sweep, not per estimate.
std::uint64_t estimator_fingerprint(const core::Estimator& est);

/// Cache key for one (config, n) estimate.
std::string estimate_key(const cluster::Config& config, int n);

/// Point-in-time statistics of one cache shard (see shard_stats()).
struct ShardStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// Sharded string-keyed cache of immutable payloads.
///
/// Thread-safety: every member is safe to call concurrently. Entries are
/// spread over `shards` independently locked maps, so concurrent
/// lookups/inserts contend only when two threads hash to the same shard.
/// Aggregate hit/miss/eviction counters are relaxed atomics.
///
/// Complexity: lookup/insert are O(1) expected (one shard lock, one hash
/// map probe) plus one payload copy. size()/clear() lock every shard in
/// turn; stats()/shard_stats() hold all shard locks simultaneously
/// (consistent snapshot) — O(shards), cheap, but a global pause point:
/// scrape between sweeps, not inside them.
template <typename V>
class ShardedCache {
 public:
  /// `shards`: lock striping width (0 is treated as 1).
  /// `max_entries_per_shard`: capacity bound; 0 means unbounded. When a
  /// full shard takes a new entry, one resident entry is evicted
  /// (arbitrary victim — the access pattern is sweep-shaped, so
  /// recency tracking would cost more than re-deriving the odd victim).
  explicit ShardedCache(std::size_t shards = 16,
                        std::size_t max_entries_per_shard = 0)
      : shard_count_(shards == 0 ? 1 : shards),
        max_entries_per_shard_(max_entries_per_shard),
        shards_(std::make_unique<Shard[]>(shard_count_)) {}

  /// Cached value for `key`, counting a hit or a miss.
  std::optional<V> lookup(const std::string& key) {
    std::optional<V> out;
    lookup_with(key, [&out](const V& v) { out = v; });
    return out;
  }

  /// Counts a hit or a miss for `key`; on a hit calls `read(value)`
  /// under the shard lock and returns true. A caller that only needs to
  /// copy from the value saves lookup()'s copy of it.
  template <typename F>
  bool lookup_with(const std::string& key, F&& read) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> l(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      ++s.misses;
      HETSCHED_ATOMIC_DOC(relaxed, "statistics only; the exact count lives "
                                   "in s.misses under the shard lock");
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ++s.hits;
    HETSCHED_ATOMIC_DOC(relaxed, "statistics only; the exact count lives "
                                 "in s.hits under the shard lock");
    hits_.fetch_add(1, std::memory_order_relaxed);
    read(it->second);
    return true;
  }

  /// Stores `value` under `key`. May evict when the shard is at capacity.
  void insert(const std::string& key, V value) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> l(s.mu);
    const auto [it, inserted] = s.map.emplace(key, std::move(value));
    if (!inserted || max_entries_per_shard_ == 0 ||
        s.map.size() <= max_entries_per_shard_)
      return;
    // Over capacity: evict an arbitrary resident entry other than the one
    // just inserted (begin() may be it after rehashing).
    auto victim = s.map.begin();
    if (victim == it) ++victim;
    s.map.erase(victim);
    ++s.evictions;
    HETSCHED_ATOMIC_DOC(relaxed, "statistics only; the exact count lives "
                                 "in s.evictions under the shard lock");
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  void clear() {
    for (std::size_t i = 0; i < shard_count_; ++i) {
      std::lock_guard<std::mutex> l(shards_[i].mu);
      shards_[i].map.clear();
    }
  }

  /// Total resident entries (locks every shard; O(shards)).
  std::size_t size() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i < shard_count_; ++i) {
      std::lock_guard<std::mutex> l(shards_[i].mu);
      total += shards_[i].map.size();
    }
    return total;
  }

  /// Per-shard hit/miss/eviction/occupancy counters, index = shard id.
  /// Feeds the `search.cache.*` / `server.cache.*` metrics and the
  /// observability docs' cache-thrash walkthrough
  /// (docs/OBSERVABILITY.md). Taken as one consistent snapshot: every
  /// shard lock is held simultaneously, so the rows sum to a state the
  /// cache actually passed through.
  std::vector<ShardStats> shard_stats() const { return stats().shards; }

  /// Consistent whole-cache snapshot: per-shard rows, their sum, and the
  /// global atomic counters — all captured while every shard lock is
  /// held, which guarantees `total` equals the globals even under
  /// concurrent lookups/inserts (both are updated under the shard lock).
  /// Locking one shard at a time instead would let an operation slip
  /// between the rows and the totals drift; tests/search_steal_stress_test
  /// hammers this invariant concurrently.
  struct Stats {
    std::vector<ShardStats> shards;
    ShardStats total;             ///< sum of `shards`
    std::uint64_t global_hits = 0;
    std::uint64_t global_misses = 0;
    std::uint64_t global_evictions = 0;
  };
  Stats stats() const {
    // All shard locks held at once, acquired in index order
    // (lookup/insert take a single shard lock, so the total order is
    // deadlock-free). One shard at a time would tear the snapshot: a
    // lookup completing between shard i and shard j shows up in the
    // globals but not in row i.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shard_count_);
    for (std::size_t i = 0; i < shard_count_; ++i)
      locks.emplace_back(shards_[i].mu);
    Stats st;
    st.shards.resize(shard_count_);
    for (std::size_t i = 0; i < shard_count_; ++i) {
      st.shards[i] = ShardStats{shards_[i].hits, shards_[i].misses,
                                shards_[i].evictions, shards_[i].map.size()};
      st.total.hits += st.shards[i].hits;
      st.total.misses += st.shards[i].misses;
      st.total.evictions += st.shards[i].evictions;
      st.total.entries += st.shards[i].entries;
    }
    HETSCHED_ATOMIC_DOC(relaxed, "counters are updated under the shard "
                                 "locks, all of which are held here");
    st.global_hits = hits_.load(std::memory_order_relaxed);
    HETSCHED_ATOMIC_DOC(relaxed, "counters are updated under the shard "
                                 "locks, all of which are held here");
    st.global_misses = misses_.load(std::memory_order_relaxed);
    HETSCHED_ATOMIC_DOC(relaxed, "counters are updated under the shard "
                                 "locks, all of which are held here");
    st.global_evictions = evictions_.load(std::memory_order_relaxed);
    return st;
  }

  std::uint64_t hits() const {
    HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic; a stale read is fine");
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic; a stale read is fine");
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic; a stale read is fine");
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, V> map HETSCHED_GUARDED_BY(mu);
    std::uint64_t hits HETSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t misses HETSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t evictions HETSCHED_GUARDED_BY(mu) = 0;
  };
  Shard& shard_for(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % shard_count_];
  }

  std::size_t shard_count_;
  std::size_t max_entries_per_shard_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Sharded (config, n) → estimate map, bound to an estimator epoch.
/// A stored NaN payload means "the model set does not cover this
/// configuration".
class EstimateCache : public ShardedCache<Seconds> {
 public:
  using ShardedCache<Seconds>::ShardedCache;

  /// Binds the cache to an estimator fingerprint, clearing all entries
  /// if it differs from the currently bound one. Thread-safe, but
  /// intended to be called between sweeps, not inside them.
  void bind(std::uint64_t fingerprint) {
    std::lock_guard<std::mutex> l(bind_mu_);
    if (bound_ && bound_fingerprint_ == fingerprint) return;
    bound_ = true;
    bound_fingerprint_ = fingerprint;
    clear();
  }

 private:
  std::mutex bind_mu_;
  std::uint64_t bound_fingerprint_ HETSCHED_GUARDED_BY(bind_mu_) = 0;
  bool bound_ HETSCHED_GUARDED_BY(bind_mu_) = false;
};

}  // namespace hetsched::search
