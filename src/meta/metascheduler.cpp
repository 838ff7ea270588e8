#include "meta/metascheduler.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "meta/router.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/trace_memo.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace esched::meta {

namespace {

/// Per-center tracer tracks sit above the supervisor ranges used by
/// run/proc (worker lifetimes) and net/fleet (agent sessions), so
/// a traced multi-center sweep shows one row per center.
constexpr std::uint32_t kCenterTrackBase = 9100;

}  // namespace

RoutingPlan route_jobs(const trace::Trace& global, const MetaSpec& spec) {
  validate(spec);
  const auto n = static_cast<std::uint32_t>(spec.centers.size());

  std::vector<std::unique_ptr<power::PricingModel>> owned;
  owned.reserve(n);
  RoutingContext ctx;
  ctx.spec = &spec;
  ctx.pricing.reserve(n);
  ctx.nodes.reserve(n);
  for (const CenterSpec& c : spec.centers) {
    owned.push_back(run::build_pricing(c.pricing));
    ctx.pricing.push_back(owned.back().get());
    ctx.nodes.push_back(c.nodes != 0 ? c.nodes : global.system_nodes());
  }
  ctx.backlog_node_seconds.assign(n, 0.0);
  const std::unique_ptr<Router> router = make_router_by_name(spec.router);

  RoutingPlan plan;
  plan.home.reserve(global.size());
  plan.center.reserve(global.size());
  plan.jobs_per_center.assign(n, 0);

  // Smooth weighted round-robin credits for home assignment: every
  // arrival tops each fitting center up by its share, the highest
  // credit wins (ties -> lowest index) and pays the round's total back.
  // Proportions converge to trace_share without any RNG.
  std::vector<double> credit(n, 0.0);
  std::vector<char> eligible(n, 0);
  TimeSec last_arrival = global.empty() ? 0 : global.first_submit();

  for (const trace::Job& job : global.jobs()) {
    // Drain the backlog estimates for the time since the last arrival
    // (each center completes ~nodes node-seconds per second).
    if (job.submit > last_arrival) {
      const auto dt = static_cast<double>(job.submit - last_arrival);
      for (std::uint32_t c = 0; c < n; ++c) {
        ctx.backlog_node_seconds[c] = std::max(
            0.0, ctx.backlog_node_seconds[c] -
                     dt * static_cast<double>(ctx.nodes[c]));
      }
      last_arrival = job.submit;
    }

    double round_total = 0.0;
    bool any = false;
    for (std::uint32_t c = 0; c < n; ++c) {
      eligible[c] = job.nodes <= ctx.nodes[c] ? 1 : 0;
      if (eligible[c] != 0) {
        credit[c] += spec.centers[c].trace_share;
        round_total += spec.centers[c].trace_share;
        any = true;
      }
    }
    if (!any) {
      throw Error("meta: job " + std::to_string(job.id) + " needs " +
                  std::to_string(job.nodes) +
                  " nodes but no center is that large (largest: " +
                  std::to_string(
                      *std::max_element(ctx.nodes.begin(), ctx.nodes.end())) +
                  ")");
    }
    std::uint32_t home = n;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (eligible[c] != 0 && (home == n || credit[c] > credit[home])) {
        home = c;
      }
    }
    credit[home] -= round_total;

    RouteQuery query;
    query.job = &job;
    query.home = home;
    query.now = job.submit;
    query.eligible = &eligible;
    const std::uint32_t dest = router->route(query, ctx);
    ESCHED_REQUIRE(dest < n && eligible[dest] != 0,
                   "meta: router returned an ineligible center");

    plan.home.push_back(home);
    plan.center.push_back(dest);
    if (dest != home) ++plan.moved;
    ++plan.jobs_per_center[dest];
    ctx.backlog_node_seconds[dest] += static_cast<double>(job.nodes) *
                                      static_cast<double>(job.walltime);
  }
  return plan;
}

trace::Trace build_center_trace(const trace::Trace& global,
                                const MetaSpec& spec,
                                const RoutingPlan& plan,
                                std::uint32_t center) {
  validate_center(spec, center);
  ESCHED_REQUIRE(plan.center.size() == global.size(),
                 "meta: routing plan does not match the trace");
  const CenterSpec& c = spec.centers[center];
  trace::Trace out(global.name() + "@" + c.name,
                   c.nodes != 0 ? c.nodes : global.system_nodes());

  // Collect the center's jobs with the move penalty applied and put them
  // in trace order with one stable sort: equal (submit, id) keys keep
  // their global order, duplicate ids included.
  std::vector<trace::Job> jobs;
  for (std::size_t i = 0; i < global.size(); ++i) {
    if (plan.center[i] != center) continue;
    trace::Job job = global[i];
    if (plan.center[i] != plan.home[i]) job.submit += spec.move_penalty;
    jobs.push_back(job);
  }
  std::stable_sort(jobs.begin(), jobs.end(), trace::submit_id_less);
  for (const trace::Job& job : jobs) out.add_job(job);
  return out;
}

sim::SimResult simulate_center(const run::JobSpec& spec) {
  ESCHED_REQUIRE(spec.meta != nullptr,
                 "meta: simulate_center needs a spec with a MetaSpec");
  const MetaSpec& meta = *spec.meta;
  validate_center(meta, spec.meta_center);
  const CenterSpec& center = meta.centers[spec.meta_center];

  const run::RoutedTrace routed = run::memo_routed_trace(spec.trace, meta);
  const trace::Trace& global = *routed.trace;
  const RoutingPlan& plan = *routed.plan;

  if (obs::counters_enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("meta.cells").add(1);
    reg.counter("meta.route.jobs").add(global.size());
    reg.counter("meta.route.moved").add(plan.moved);
    reg.counter("meta.center." + center.name + ".jobs")
        .add(plan.jobs_per_center[spec.meta_center]);
  }

  const std::unique_ptr<power::PricingModel> pricing =
      run::build_pricing(center.pricing);
  const std::unique_ptr<core::SchedulingPolicy> policy =
      run::build_policy(center.policy);
  sim::SimConfig config = spec.config;
  // A facility model never reaches a meta cell (the wire codec rejects
  // it and bench meta cells are built without one); the tracer may stay
  // — tracing never changes results, and per-center spans are the point.
  config.facility_model = nullptr;

  const auto begin = std::chrono::steady_clock::now();
  sim::SimResult result;
  if (meta.centers.size() == 1 && center.nodes == 0) {
    // Single-center identity: nothing can move and the machine size is
    // inherited, so simulate the global trace itself — bit-identical
    // (trace name included) to the equivalent plain single-site cell.
    result = sim::simulate(global, *pricing, *policy, config);
  } else {
    const trace::Trace local =
        build_center_trace(global, meta, plan, spec.meta_center);
    result = sim::simulate(local, *pricing, *policy, config);
  }
  if (config.tracer != nullptr) {
    config.tracer->complete_span(
        "center:" + center.name +
            (spec.label.empty() ? "" : " " + spec.label),
        "meta", begin, std::chrono::steady_clock::now(),
        kCenterTrackBase + spec.meta_center);
  }
  return result;
}

}  // namespace esched::meta
