#include "support/work_steal.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/hooks.hpp"
#include "support/error.hpp"
#include "support/thread_annotations.hpp"

namespace hetsched::support {

namespace {

/// A contiguous index range [begin, end).
struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// One context's chunk queue. A mutex per deque (rather than lock-free
/// Chase-Lev) keeps the memory model trivially correct under TSan; the
/// engine's chunks are coarse enough that the lock is cold.
struct ChunkDeque {
  std::mutex mu;
  std::deque<Chunk> q HETSCHED_GUARDED_BY(mu);
};

// One parallel_for invocation. Lives in a shared_ptr so a worker that
// wakes up late (after the loop already finished) still dereferences a
// valid object, finds every deque empty and goes back to sleep.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  bool stealing = true;
  std::vector<ChunkDeque> deques;  // one per context
  // Contexts inside work() for this job. Workers join under the pool
  // mutex (worker_loop), the caller before it publishes the job.
  std::atomic<int> running{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr error;  // guarded by the pool mutex
};

}  // namespace

struct WorkStealingPool::Impl {
  std::mutex mu;
  std::condition_variable cv_work;  // workers wait for a new job epoch
  std::condition_variable cv_done;  // caller waits for job completion
  std::mutex serialize;             // one parallel_for at a time
  std::shared_ptr<Job> job HETSCHED_GUARDED_BY(mu);
  std::uint64_t epoch HETSCHED_GUARDED_BY(mu) = 0;
  bool stop HETSCHED_GUARDED_BY(mu) = false;
  bool stealing HETSCHED_NOT_GUARDED(
      "set in the constructor before workers start, immutable after") = true;
  std::atomic<std::uint64_t> steals{0};
  std::vector<std::thread> workers HETSCHED_NOT_GUARDED(
      "filled by the constructor, joined by the destructor; never "
      "touched by workers themselves");

  // Pops the next chunk for context `self`: own deque front first, then
  // (with stealing on) the back of each victim in ring order.
  bool next_chunk(Job& j, std::size_t self, Chunk& out, std::uint64_t& stolen) {
    {
      ChunkDeque& own = j.deques[self];
      std::lock_guard<std::mutex> l(own.mu);
      if (!own.q.empty()) {
        out = own.q.front();
        own.q.pop_front();
        return true;
      }
    }
    if (!j.stealing) return false;
    const std::size_t ctxs = j.deques.size();
    for (std::size_t v = 1; v < ctxs; ++v) {
      ChunkDeque& victim = j.deques[(self + v) % ctxs];
      std::lock_guard<std::mutex> l(victim.mu);
      if (!victim.q.empty()) {
        out = victim.q.back();
        victim.q.pop_back();
        ++stolen;
        return true;
      }
    }
    return false;
  }

  void abort_job(Job& j) {
    HETSCHED_ATOMIC_DOC(relaxed, "best-effort abort flag; the exception "
                                 "itself travels under mu");
    j.aborted.store(true, std::memory_order_relaxed);
    // Drop every queued chunk so all contexts drain out quickly.
    for (ChunkDeque& d : j.deques) {
      std::lock_guard<std::mutex> l(d.mu);
      d.q.clear();
    }
  }

  // Runs chunks of `j` as context `self`, which has already joined it
  // (counted in j->running).
  void work(const std::shared_ptr<Job>& j, std::size_t self) {
    std::uint64_t chunks_claimed = 0;
    std::uint64_t indices_run = 0;
    std::uint64_t stolen = 0;
    Chunk c;
    HETSCHED_ATOMIC_DOC(relaxed, "best-effort early exit; the exception "
                                 "itself travels under mu");
    while (!j->aborted.load(std::memory_order_relaxed) &&
           next_chunk(*j, self, c, stolen)) {
      ++chunks_claimed;
      indices_run += c.end - c.begin;
      for (std::size_t i = c.begin; i < c.end; ++i) {
        HETSCHED_ATOMIC_DOC(relaxed, "best-effort early exit; the "
                                     "exception itself travels under mu");
        if (j->aborted.load(std::memory_order_relaxed)) break;
        try {
          (*j->fn)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> l(mu);
            if (!j->error) j->error = std::current_exception();
          }
          abort_job(*j);
          break;
        }
      }
    }
    HETSCHED_COUNTER_ADD("pool.chunks_claimed", chunks_claimed);
    if (indices_run > 0)
      HETSCHED_HISTOGRAM_RECORD("pool.indices_per_context", indices_run);
    HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic; a stale read in "
                                 "steals() is fine");
    if (stolen > 0) steals.fetch_add(stolen, std::memory_order_relaxed);
    HETSCHED_ATOMIC_DOC(acq_rel, "chains every context's decrement: the "
                                 "caller's acquire load that reads 0 sees "
                                 "all loop-body writes");
    if (j->running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last one out: take the lock empty so the caller cannot check the
      // predicate and fall asleep between our decrement and the notify.
      { std::lock_guard<std::mutex> l(mu); }
      cv_done.notify_all();
    }
  }

  void worker_loop(std::size_t self) {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> j;
      {
        std::unique_lock<std::mutex> l(mu);
        cv_work.wait(l, [&] { return stop || epoch != seen; });
        if (stop) return;
        seen = epoch;
        j = job;
        // Join while holding mu: the caller evaluates its completion
        // predicate under mu and retires the job in the same critical
        // section, so a worker either joins before that check (and holds
        // it off until it leaves) or finds no job. A worker joining
        // outside mu could pop its last chunk between the caller's read
        // of running and its scan of the deques, and parallel_for would
        // return while that chunk still ran.
        HETSCHED_ATOMIC_DOC(relaxed, "ordered by mu against the caller's "
                                     "predicate, which reads running under "
                                     "mu");
        if (j) j->running.fetch_add(1, std::memory_order_relaxed);
      }
      if (j) work(j, self);
    }
  }

  bool all_deques_empty(Job& j) {
    for (ChunkDeque& d : j.deques) {
      std::lock_guard<std::mutex> l(d.mu);
      if (!d.q.empty()) return false;
    }
    return true;
  }
};

WorkStealingPool::WorkStealingPool(std::size_t threads, bool stealing)
    : impl_(new Impl) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  impl_->stealing = stealing;
  // Context 0 is the caller; workers take contexts 1 .. threads-1.
  for (std::size_t i = 1; i < threads; ++i)
    impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> l(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
}

std::size_t WorkStealingPool::size() const {
  return impl_->workers.size() + 1;
}

bool WorkStealingPool::stealing() const { return impl_->stealing; }

std::uint64_t WorkStealingPool::steals() const {
  HETSCHED_ATOMIC_DOC(relaxed, "monotonic statistic; a stale read is fine");
  return impl_->steals.load(std::memory_order_relaxed);
}

void WorkStealingPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  HETSCHED_CHECK(static_cast<bool>(fn), "parallel_for: empty function");
  if (n == 0) return;
  if (impl_->workers.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::lock_guard<std::mutex> serial(impl_->serialize);
  HETSCHED_TRACE_SPAN_VAR(obs_span, "support", "parallel_for");
  obs_span.arg("n", static_cast<long long>(n));
  HETSCHED_COUNTER_ADD("pool.parallel_for_calls", 1);
  const std::size_t ctxs = size();
  auto j = std::make_shared<Job>();
  j->fn = &fn;
  j->n = n;
  j->stealing = impl_->stealing;
  j->deques = std::vector<ChunkDeque>(ctxs);
  // Small chunks give stealing something to migrate; ~16 per context
  // keeps the per-chunk locking cold for large n while n <= 16 * ctxs
  // (the engine's task counts) gets one index per chunk.
  const std::size_t chunk = std::max<std::size_t>(1, n / (16 * ctxs));
  std::size_t which = 0;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, n);
    j->deques[which % ctxs].q.push_back(Chunk{begin, end});
    ++which;
  }
  {
    std::lock_guard<std::mutex> l(impl_->mu);
    HETSCHED_ATOMIC_DOC(relaxed, "the caller joins as context 0 before any "
                                 "worker can see the job");
    j->running.fetch_add(1, std::memory_order_relaxed);
    impl_->job = j;
    ++impl_->epoch;
  }
  impl_->cv_work.notify_all();

  impl_->work(j, 0);  // the caller participates as context 0

  {
    std::unique_lock<std::mutex> l(impl_->mu);
    HETSCHED_ATOMIC_DOC(acquire, "pairs with the contexts' acq_rel "
                                 "fetch_sub of running: seeing 0 means "
                                 "their writes happened-before this wakeup");
    impl_->cv_done.wait(l, [&] {
      return j->running.load(std::memory_order_acquire) == 0 &&
             impl_->all_deques_empty(*j);
    });
    impl_->job.reset();
    if (j->error) std::rethrow_exception(j->error);
  }
}

}  // namespace hetsched::support
