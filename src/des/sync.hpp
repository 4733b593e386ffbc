// Synchronization primitives for simulated tasks.
//
//  * Gate     — one-shot broadcast event (open once, releases all waiters)
//  * Queue<T> — FIFO channel with suspending pop (MPI message matching)
//  * Barrier  — n-party synchronization point, reusable
//
// Waiters are released through the event queue (not resumed inline), so
// wake-ups interleave deterministically with other same-time events and
// no primitive ever re-enters a running coroutine.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <vector>

#include "des/sim.hpp"
#include "support/error.hpp"

namespace hetsched::des {

/// One-shot broadcast event.
class Gate {
 public:
  explicit Gate(Simulator& sim) : sim_(sim) {}

  /// True once open() has been called.
  bool is_open() const { return open_; }

  /// Opens the gate and releases every waiter at the current time.
  void open() {
    if (open_) return;
    open_ = true;
    for (auto h : waiters_) sim_.schedule_after(0.0, [h] { h.resume(); });
    waiters_.clear();
  }

  struct Awaiter {
    Gate& gate;
    bool await_ready() const { return gate.open_; }
    void await_suspend(std::coroutine_handle<> h) {
      gate.waiters_.push_back(h);
    }
    void await_resume() const {}
  };

  /// `co_await gate.wait()` — returns immediately if already open.
  Awaiter wait() { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  bool open_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// FIFO channel of values with suspending pop.
template <typename T>
class Queue {
 public:
  explicit Queue(Simulator& sim) : sim_(sim) {}

  /// Enqueues a value; releases the oldest waiter if any.
  void push(T value) {
    items_.push_back(std::move(value));
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      ++waking_;
      sim_.schedule_after(0.0, [h] { h.resume(); });
    }
  }

  /// Number of queued values.
  std::size_t size() const { return items_.size(); }

  /// True when the queue holds no value and no task is waiting for one
  /// (suspended, or released but not yet resumed): dropping it then
  /// loses nothing a fresh queue would not reproduce.
  bool idle() const {
    return items_.empty() && waiters_.empty() && waking_ == 0;
  }

  struct PopAwaiter {
    Queue& q;
    bool suspended = false;
    bool await_ready() const { return !q.items_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      q.waiters_.push_back(h);
    }
    T await_resume() {
      if (suspended) --q.waking_;
      HETSCHED_ASSERT(!q.items_.empty(), "Queue resumed without an item");
      T v = std::move(q.items_.front());
      q.items_.pop_front();
      return v;
    }
  };

  /// `co_await q.pop()` — suspends until a value is available.
  PopAwaiter pop() { return PopAwaiter{*this}; }

 private:
  Simulator& sim_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
  std::size_t waking_ = 0;  // released by push, not yet resumed
};

/// Reusable n-party barrier.
class Barrier {
 public:
  Barrier(Simulator& sim, std::size_t parties)
      : sim_(sim), parties_(parties) {
    HETSCHED_CHECK(parties >= 1, "Barrier requires at least one party");
  }

  struct Awaiter {
    Barrier& b;
    bool await_ready() {
      if (b.arrived_ + 1 == b.parties_) {
        // Last arrival: release everyone and pass through.
        b.arrived_ = 0;
        ++b.generation_;
        for (auto h : b.waiters_)
          b.sim_.schedule_after(0.0, [h] { h.resume(); });
        b.waiters_.clear();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++b.arrived_;
      b.waiters_.push_back(h);
    }
    void await_resume() const {}
  };

  /// `co_await barrier.arrive()` — suspends until all parties arrive.
  Awaiter arrive() { return Awaiter{*this}; }

  /// Completed barrier rounds (diagnostics).
  std::uint64_t generation() const { return generation_; }

 private:
  Simulator& sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace hetsched::des
