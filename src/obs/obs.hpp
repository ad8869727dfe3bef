// The observability layer every instrumented path includes: the per-node
// metrics registry, the lifecycle tracer and the latency probe.
//
// Observability is always compiled in. The cost model of the hot paths:
//   * counters / gauges  — one relaxed atomic RMW, no branches;
//   * histograms         — one bit-scan + one relaxed atomic RMW;
//   * trace records and probe hooks — a null check (`if (tracer_)`); when a
//     Tracer or LatencyProbe is attached, its own cost (tracing and the
//     probe are opt-in per node or cluster).
// bench_obs_overhead quantifies the tracer and probe against a plain run.
#pragma once

// Observability has a single build. The define stays for code built
// outside this tree that stops its build when it is not 1 (the perfbench
// harness does, with #error).
#define STAB_OBS_ENABLED 1

#include "obs/latency_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
