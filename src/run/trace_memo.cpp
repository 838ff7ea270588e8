#include "run/trace_memo.hpp"

#include "meta/metascheduler.hpp"
#include "meta/spec.hpp"
#include "obs/registry.hpp"

namespace esched::run {

namespace {

struct Memo {
  TraceSpec trace_key;
  std::shared_ptr<const trace::Trace> trace;  ///< null = no entry
  meta::MetaSpec plan_key;
  std::shared_ptr<const meta::RoutingPlan> plan;  ///< null = no plan
};

thread_local Memo t_memo;

void count(const char* name) {
  if (obs::counters_enabled()) obs::Registry::global().counter(name).add(1);
}

/// The trace `spec` names, from the memo when it holds an equal
/// synthetic spec.
std::shared_ptr<const trace::Trace> memo_trace(const TraceSpec& spec) {
  Memo& memo = t_memo;
  // Only synthetic specs are ever stored, so an swf spec never matches.
  if (memo.trace != nullptr && memo.trace_key == spec) {
    count("run.trace_memo.hits");
    return memo.trace;
  }
  count("run.trace_memo.misses");
  memo = Memo{};
  auto built = std::make_shared<const trace::Trace>(build_trace(spec));
  if (spec.source != "swf") {
    memo.trace_key = spec;
    memo.trace = built;
  }
  return built;
}

}  // namespace

RoutedTrace memo_routed_trace(const TraceSpec& trace,
                              const meta::MetaSpec& meta) {
  RoutedTrace out;
  out.trace = memo_trace(trace);
  Memo& memo = t_memo;
  // The plan belongs to the memoized trace: a rebuilt trace (a trace
  // miss, or any swf trace) never matches it.
  if (memo.plan != nullptr && memo.trace == out.trace &&
      memo.plan_key == meta) {
    count("meta.plan_memo.hits");
    out.plan = memo.plan;
    return out;
  }
  count("meta.plan_memo.misses");
  memo.plan.reset();
  out.plan = std::make_shared<const meta::RoutingPlan>(
      meta::route_jobs(*out.trace, meta));
  if (memo.trace == out.trace) {
    memo.plan_key = meta;
    memo.plan = out.plan;
  }
  return out;
}

}  // namespace esched::run
