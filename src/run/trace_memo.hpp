// Per-thread memo of a multi-center cell's global trace and routing plan.
//
// One scenario expands into N cells, one per center, listed together, and
// every cell needs the same global trace and the same routing of it. A
// sweep worker (an esched-worker process, an agentd worker, or an
// in-process SweepRunner thread) that runs several of them back to back
// therefore builds and routes once. Plain single-site cells do not use
// the memo: they rebuild their trace per cell.
//
// Contract:
//  - thread_local, one entry, no locks: a thread only ever sees its own
//    entry, so there is nothing to share or invalidate across threads.
//  - The trace is keyed by TraceSpec equality; the routing plan by that
//    same trace plus MetaSpec equality.
//  - Only synthetic sources are memoized. An "swf" trace is reloaded on
//    every call (the file may change under a long-lived worker) and its
//    plan is recomputed.
//  - On a miss the old entry is released before the new one is built, so
//    the memo never holds two traces; a build that throws leaves nothing
//    cached.
//  - Builders are deterministic in their specs, so a hit returns exactly
//    what a fresh build would: results stay byte-identical.
//  - Hits and misses count in run.trace_memo.{hits,misses} and
//    meta.plan_memo.{hits,misses} when obs counters are on.
#pragma once

#include <memory>

#include "run/spec.hpp"
#include "trace/trace.hpp"

namespace esched::meta {
struct MetaSpec;     // meta/spec.hpp
struct RoutingPlan;  // meta/metascheduler.hpp
}  // namespace esched::meta

namespace esched::run {

/// A meta cell's global trace and its routing plan under a MetaSpec.
struct RoutedTrace {
  std::shared_ptr<const trace::Trace> trace;
  std::shared_ptr<const meta::RoutingPlan> plan;
};

/// build_trace(trace) plus meta::route_jobs over it, both from this
/// thread's memo when the previous call on this thread named an equal
/// synthetic trace (and, for the plan, an equal `meta`).
RoutedTrace memo_routed_trace(const TraceSpec& trace,
                              const meta::MetaSpec& meta);

}  // namespace esched::run
