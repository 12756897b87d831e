// mwc::obs — umbrella header: instrumentation macros + compile-time kill
// switch.
//
// Hot paths are instrumented exclusively through these macros. Each
// macro caches its instrument reference in a function-local static (one
// registry lookup per call site, ever) and then performs a single
// lock-free atomic update — or, for MWC_OBS_SCOPE, one relaxed load when
// tracing is off.
//
// Compile-time kill switch: building with -DMWC_OBS_ENABLED=0 (CMake:
// -DMWC_OBS=OFF) turns every macro below into a no-op that evaluates
// none of its arguments, so the instrumented binary is bit-for-bit the
// uninstrumented hot loop. The obs *library* (Registry, Span, traces)
// stays compiled either way — direct API users such as sim::Simulator's
// per-instance registry keep working — only ambient macro
// instrumentation disappears. The CI build matrix compiles and tests
// both settings.
//
// Naming convention (see docs/OBSERVABILITY.md): dot-separated
// lower_snake path "component.metric[_unit]", e.g. "sim.dispatches",
// "oracle.dispatch_views", "pool.queue_wait_us".
#pragma once

#ifndef MWC_OBS_ENABLED
#define MWC_OBS_ENABLED 1
#endif

#include "obs/registry.hpp"
#include "obs/span.hpp"

#define MWC_OBS_CONCAT_IMPL(a, b) a##b
#define MWC_OBS_CONCAT(a, b) MWC_OBS_CONCAT_IMPL(a, b)

#if MWC_OBS_ENABLED

/// Times the enclosing scope as a trace span named `name` (a string
/// literal). Records only while trace collection is enabled.
#define MWC_OBS_SCOPE(name) \
  ::mwc::obs::Span MWC_OBS_CONCAT(mwc_obs_scope_, __LINE__)(name)

/// Increments the global counter `name` by 1.
#define MWC_OBS_COUNT(name)                                        \
  do {                                                             \
    static ::mwc::obs::Counter& mwc_obs_counter =                  \
        ::mwc::obs::Registry::global().counter(name);              \
    mwc_obs_counter.add(1);                                        \
  } while (0)

/// Increments the global counter `name` by `delta` (flush-style use:
/// accumulate in a local, add once per call).
#define MWC_OBS_COUNT_N(name, delta)                               \
  do {                                                             \
    static ::mwc::obs::Counter& mwc_obs_counter =                  \
        ::mwc::obs::Registry::global().counter(name);              \
    mwc_obs_counter.add(static_cast<std::uint64_t>(delta));        \
  } while (0)

/// Sets the global gauge `name` to `value`.
#define MWC_OBS_GAUGE_SET(name, value)                             \
  do {                                                             \
    static ::mwc::obs::Gauge& mwc_obs_gauge =                      \
        ::mwc::obs::Registry::global().gauge(name);                \
    mwc_obs_gauge.set(static_cast<double>(value));                 \
  } while (0)

/// Adds `delta` to the global gauge `name`.
#define MWC_OBS_GAUGE_ADD(name, delta)                             \
  do {                                                             \
    static ::mwc::obs::Gauge& mwc_obs_gauge =                      \
        ::mwc::obs::Registry::global().gauge(name);                \
    mwc_obs_gauge.add(static_cast<double>(delta));                 \
  } while (0)

/// Observes `value` into the global histogram `name` with the fixed
/// bucket upper bounds given as the trailing arguments (the bounds are
/// read once, at first execution of the call site).
#define MWC_OBS_HISTOGRAM(name, value, ...)                        \
  do {                                                             \
    static ::mwc::obs::Histogram& mwc_obs_hist =                   \
        ::mwc::obs::Registry::global().histogram(                  \
            name, std::initializer_list<double>{__VA_ARGS__});     \
    mwc_obs_hist.observe(static_cast<double>(value));              \
  } while (0)

#else  // !MWC_OBS_ENABLED — every macro compiles to nothing; sizeof keeps
       // the operands type-checked but unevaluated (no codegen, no
       // unused-variable warnings at call sites).

#define MWC_OBS_SCOPE(name) \
  do {                      \
  } while (0)
#define MWC_OBS_COUNT(name) \
  do {                      \
  } while (0)
#define MWC_OBS_COUNT_N(name, delta)  \
  do {                                \
    (void)sizeof((delta));            \
  } while (0)
#define MWC_OBS_GAUGE_SET(name, value) \
  do {                                 \
    (void)sizeof((value));             \
  } while (0)
#define MWC_OBS_GAUGE_ADD(name, delta) \
  do {                                 \
    (void)sizeof((delta));             \
  } while (0)
#define MWC_OBS_HISTOGRAM(name, value, ...) \
  do {                                      \
    (void)sizeof((value));                  \
  } while (0)

#endif  // MWC_OBS_ENABLED
