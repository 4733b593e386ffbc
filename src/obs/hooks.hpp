// Profiling hook macros: the only interface instrumented code should
// use. Two compile modes, selected by the HETSCHED_OBS cmake option:
//
//  * enabled (default): counters/histograms update striped atomics
//    (metric pointers cached in function-local statics, so the name
//    lookup happens once per call site); trace macros emit events when
//    the tracer is enabled at runtime and cost one relaxed load + branch
//    when it is not.
//  * disabled (cmake -DHETSCHED_OBS=OFF, which defines
//    HETSCHED_OBS_DISABLED): every macro expands to a no-op statement or
//    an empty object — zero code, zero data, asserted by
//    tests/obs_disabled_test.cpp.
//
// HETSCHED_OBS_ACTIVE is 1 or 0 accordingly, for the rare call site
// that needs to gate non-macro instrumentation (prefer the macros).
#pragma once

#include "obs/fine_hist.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsched::obs {

/// Inert stand-ins the disabled macros expand to: same surface as
/// Span/AsyncSpan, no members, no effects.
struct NullSpan {
  template <typename T>
  NullSpan& arg(const char*, T&&) {
    return *this;
  }
  bool active() const { return false; }
};

}  // namespace hetsched::obs

#define HETSCHED_OBS_CONCAT2(a, b) a##b
#define HETSCHED_OBS_CONCAT(a, b) HETSCHED_OBS_CONCAT2(a, b)

#if defined(HETSCHED_OBS_DISABLED)

#define HETSCHED_OBS_ACTIVE 0

#define HETSCHED_COUNTER_ADD(name, delta) \
  do {                                    \
  } while (false)
#define HETSCHED_GAUGE_SET(name, value) \
  do {                                  \
  } while (false)
#define HETSCHED_HISTOGRAM_RECORD(name, value) \
  do {                                         \
  } while (false)
#define HETSCHED_TRACE_SPAN(cat, name)        \
  [[maybe_unused]] ::hetsched::obs::NullSpan \
      HETSCHED_OBS_CONCAT(hetsched_obs_span_, __LINE__)
#define HETSCHED_TRACE_SPAN_VAR(var, cat, name) \
  [[maybe_unused]] ::hetsched::obs::NullSpan var
#define HETSCHED_TRACE_ASYNC_VAR(var, cat, name) \
  [[maybe_unused]] ::hetsched::obs::NullSpan var
#define HETSCHED_TRACE_INSTANT(cat, name) \
  do {                                    \
  } while (false)

#else  // observability compiled in

#define HETSCHED_OBS_ACTIVE 1

/// Adds `delta` to counter `name` (a string literal).
#define HETSCHED_COUNTER_ADD(name, delta)                                 \
  do {                                                                    \
    static ::hetsched::obs::Counter* const hetsched_obs_c =               \
        ::hetsched::obs::MetricsRegistry::instance().counter(name);       \
    hetsched_obs_c->add(static_cast<std::uint64_t>(delta));               \
  } while (false)

/// Sets gauge `name` to `value`.
#define HETSCHED_GAUGE_SET(name, value)                                   \
  do {                                                                    \
    static ::hetsched::obs::Gauge* const hetsched_obs_g =                 \
        ::hetsched::obs::MetricsRegistry::instance().gauge(name);         \
    hetsched_obs_g->set(static_cast<double>(value));                      \
  } while (false)

/// Records `value` into histogram `name` (obs/fine_hist.hpp).
#define HETSCHED_HISTOGRAM_RECORD(name, value)                            \
  do {                                                                    \
    static ::hetsched::obs::FineHistogram* const hetsched_obs_h =         \
        ::hetsched::obs::MetricsRegistry::instance().histogram(name);     \
    hetsched_obs_h->record(static_cast<double>(value));                   \
  } while (false)

/// Anonymous scoped span covering the rest of the enclosing block.
#define HETSCHED_TRACE_SPAN(cat, name)  \
  ::hetsched::obs::Span HETSCHED_OBS_CONCAT(hetsched_obs_span_, \
                                            __LINE__)((cat), (name))

/// Named scoped span, for call sites that attach args:
///   HETSCHED_TRACE_SPAN_VAR(sp, "measure", "sample");
///   sp.arg("n", n);
#define HETSCHED_TRACE_SPAN_VAR(var, cat, name) \
  ::hetsched::obs::Span var((cat), (name))

/// Named async span (safe across coroutine suspension points).
#define HETSCHED_TRACE_ASYNC_VAR(var, cat, name) \
  ::hetsched::obs::AsyncSpan var((cat), (name))

/// Point event on the current thread's track.
#define HETSCHED_TRACE_INSTANT(cat, name) ::hetsched::obs::instant((cat), (name))

#endif  // HETSCHED_OBS_DISABLED
