// Tests for the multi-center metascheduling layer (src/meta): spec
// validation with name-listing errors, deterministic home assignment and
// routing, the data-movement penalty, the single-center identity against
// a plain single-site cell, cell-key canonicalization, byte-identity
// of meta cells across the in-process runner and the subprocess pool,
// the carve against a stable re-sort, and the per-thread
// trace/routing memo against fresh runs.
#include "meta/metascheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "meta/router.hpp"
#include "meta/spec.hpp"
#include "obs/registry.hpp"
#include "run/proc.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "trace/swf.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace esched::meta {
namespace {

/// A small two-center scenario: equal shares, inherited machine size,
/// tariffs phase-shifted half a day apart (opposite peak windows).
MetaSpec two_center_spec(const std::string& router = "home") {
  MetaSpec spec;
  spec.router = router;
  CenterSpec west;
  west.name = "west";
  CenterSpec east;
  east.name = "east";
  east.pricing.tz_offset_min = 12 * 60;
  spec.centers = {west, east};
  return spec;
}

/// A deterministic synthetic global trace: `jobs` single-node jobs,
/// arriving every `gap` seconds starting at t=0.
trace::Trace uniform_trace(std::size_t jobs, DurationSec gap = 60,
                           NodeCount width = 1) {
  trace::Trace trace("meta-test", 64);
  for (std::size_t i = 0; i < jobs; ++i) {
    trace::Job job;
    job.id = static_cast<JobId>(i + 1);
    job.submit = static_cast<TimeSec>(i) * gap;
    job.nodes = width;
    job.runtime = 120;
    job.walltime = 300;
    job.power_per_node = 40.0;
    trace.add_job(job);
  }
  trace.finalize();
  return trace;
}

run::JobSpec meta_job_spec(const MetaSpec& meta, std::uint32_t center) {
  run::JobSpec spec;
  spec.trace.source = "sdsc-blue";
  spec.trace.months = 1;
  spec.pricing = meta.centers[center].pricing;
  spec.policy = meta.centers[center].policy;
  spec.meta = std::make_shared<const MetaSpec>(meta);
  spec.meta_center = center;
  return spec;
}

TEST(MetaSpecTest, ValidateRejectsMalformedScenarios) {
  MetaSpec empty;
  empty.centers.clear();
  EXPECT_THROW(validate(empty), Error);

  MetaSpec bad_router = two_center_spec("teleport");
  try {
    validate(bad_router);
    FAIL() << "unknown router accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("teleport"), std::string::npos) << what;
    for (const std::string& name : known_router_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }

  MetaSpec dup = two_center_spec();
  dup.centers[1].name = "west";
  EXPECT_THROW(validate(dup), Error);

  MetaSpec unnamed = two_center_spec();
  unnamed.centers[0].name.clear();
  EXPECT_THROW(validate(unnamed), Error);

  MetaSpec bad_share = two_center_spec();
  bad_share.centers[0].trace_share = 0.0;
  EXPECT_THROW(validate(bad_share), Error);

  MetaSpec bad_penalty = two_center_spec();
  bad_penalty.move_penalty = -1;
  EXPECT_THROW(validate(bad_penalty), Error);

  MetaSpec bad_horizon = two_center_spec();
  bad_horizon.route_horizon = 0;
  EXPECT_THROW(validate(bad_horizon), Error);

  MetaSpec bad_policy = two_center_spec();
  bad_policy.centers[1].policy.name = "telepathy";
  try {
    validate(bad_policy);
    FAIL() << "unknown policy accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("telepathy"), std::string::npos) << what;
    EXPECT_NE(what.find("knapsack"), std::string::npos) << what;
  }

  MetaSpec bad_model = two_center_spec();
  bad_model.centers[0].pricing.model = "spot";
  EXPECT_THROW(validate(bad_model), Error);
}

TEST(MetaSpecTest, ValidateCenterChecksTheIndexAndNamesCenters) {
  const MetaSpec spec = two_center_spec();
  EXPECT_NO_THROW(validate_center(spec, 0));
  EXPECT_NO_THROW(validate_center(spec, 1));
  try {
    validate_center(spec, 2);
    FAIL() << "out-of-range center accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("west"), std::string::npos) << what;
    EXPECT_NE(what.find("east"), std::string::npos) << what;
  }
}

TEST(MetaSpecTest, SpecKeyIsExactAndOrderSensitive) {
  const MetaSpec a = two_center_spec();
  MetaSpec b = a;
  EXPECT_EQ(spec_key(a), spec_key(b));
  b.centers[0].pricing.ratio = 3.0000000001;
  EXPECT_NE(spec_key(a), spec_key(b));
  MetaSpec swapped = a;
  std::swap(swapped.centers[0], swapped.centers[1]);
  EXPECT_NE(spec_key(a), spec_key(swapped));
}

TEST(RouterTest, FactoryKnowsEveryNameAndRejectsOthersListingThem) {
  for (const std::string& name : known_router_names()) {
    const std::unique_ptr<Router> router = make_router_by_name(name);
    ASSERT_NE(router, nullptr);
    EXPECT_EQ(router->name(), name);
  }
  try {
    make_router_by_name("random");
    FAIL() << "unknown router accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("random"), std::string::npos) << what;
    EXPECT_NE(what.find("cheapest-window"), std::string::npos) << what;
  }
}

TEST(RouterTest, WindowAveragePriceWalksTariffSegments) {
  // Paper tariff: $0.03 off-peak until noon, $0.09 after. A 24h window
  // from midnight averages to the midpoint; a window entirely inside one
  // period is flat.
  const power::OnOffPeakPricing tariff(0.03, 3.0);
  EXPECT_DOUBLE_EQ(window_average_price(tariff, 0, kSecondsPerDay), 0.06);
  EXPECT_DOUBLE_EQ(window_average_price(tariff, 0, 6 * kSecondsPerHour),
                   0.03);
  EXPECT_DOUBLE_EQ(
      window_average_price(tariff, 13 * kSecondsPerHour, kSecondsPerHour),
      0.09);
}

TEST(RouteJobsTest, HomeAssignmentConvergesToTraceShares) {
  MetaSpec spec = two_center_spec();
  spec.centers[0].trace_share = 3.0;
  spec.centers[1].trace_share = 1.0;
  const trace::Trace trace = uniform_trace(400);
  const RoutingPlan plan = route_jobs(trace, spec);
  ASSERT_EQ(plan.home.size(), trace.size());
  const auto west =
      std::count(plan.home.begin(), plan.home.end(), 0u);
  EXPECT_EQ(west, 300);  // smooth WRR is exact on a 3:1 split
  EXPECT_EQ(plan.moved, 0u);  // the home router never moves a job
  EXPECT_EQ(plan.jobs_per_center[0] + plan.jobs_per_center[1],
            trace.size());
}

TEST(RouteJobsTest, CapacityGatesBothHomeAndDestination) {
  MetaSpec spec = two_center_spec();
  spec.centers[0].nodes = 4;  // small site
  spec.centers[1].nodes = 64;
  trace::Trace trace("meta-test", 64);
  for (std::size_t i = 0; i < 10; ++i) {
    trace::Job job;
    job.id = static_cast<JobId>(i + 1);
    job.submit = static_cast<TimeSec>(i) * 60;
    job.nodes = 16;  // only fits the big site
    job.runtime = 120;
    job.walltime = 300;
    job.power_per_node = 40.0;
    trace.add_job(job);
  }
  trace.finalize();
  const RoutingPlan plan = route_jobs(trace, spec);
  EXPECT_EQ(plan.jobs_per_center[0], 0u);
  EXPECT_EQ(plan.jobs_per_center[1], 10u);

  // A job too large for every center is a configuration error that names
  // the largest machine.
  MetaSpec tiny = two_center_spec();
  tiny.centers[0].nodes = 4;
  tiny.centers[1].nodes = 8;
  try {
    route_jobs(trace, tiny);
    FAIL() << "unroutable job accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no center"), std::string::npos) << what;
    EXPECT_NE(what.find('8'), std::string::npos) << what;
  }
}

TEST(RouteJobsTest, CheapestNowFollowsThePhaseShiftedTariffs) {
  // West is off-peak [00:00, 12:00); east (shifted +12h) is off-peak
  // [12:00, 24:00). Every job should route to whichever is off-peak at
  // its submission.
  const MetaSpec spec = two_center_spec("cheapest-now");
  const trace::Trace trace = uniform_trace(48, kSecondsPerHour / 2);
  const RoutingPlan plan = route_jobs(trace, spec);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool morning = trace[i].submit < 12 * kSecondsPerHour;
    EXPECT_EQ(plan.center[i], morning ? 0u : 1u)
        << "job " << i << " at t=" << trace[i].submit;
  }
  EXPECT_GT(plan.moved, 0u);
}

TEST(RouteJobsTest, MovePenaltyDelaysOffHomeArrivals) {
  MetaSpec spec = two_center_spec("cheapest-now");
  spec.move_penalty = 600;
  const trace::Trace trace = uniform_trace(48, kSecondsPerHour / 2);
  const RoutingPlan plan = route_jobs(trace, spec);
  for (std::uint32_t c = 0; c < 2; ++c) {
    const trace::Trace local = build_center_trace(trace, spec, plan, c);
    // Every moved job arrives exactly move_penalty after its global
    // submission; home jobs are untouched. Match by job id.
    for (const trace::Job& job : local.jobs()) {
      const std::size_t i = static_cast<std::size_t>(job.id - 1);
      ASSERT_EQ(plan.center[i], c);
      const TimeSec expected =
          trace[i].submit + (plan.center[i] != plan.home[i] ? 600 : 0);
      EXPECT_EQ(job.submit, expected) << "job " << job.id;
    }
  }
}

TEST(SimulateCenterTest, SingleCenterIsByteIdenticalToPlainCell) {
  MetaSpec one;
  CenterSpec only;
  only.name = "solo";
  one.centers = {only};
  run::JobSpec meta_cell = meta_job_spec(one, 0);

  run::JobSpec plain = meta_cell;
  plain.meta = nullptr;
  plain.meta_center = 0;

  const sim::SimResult via_meta = run::execute_job_spec(meta_cell);
  const sim::SimResult direct = run::execute_job_spec(plain);
  EXPECT_TRUE(run::results_identical(via_meta, direct));
  EXPECT_EQ(via_meta.trace_name, direct.trace_name);
}

TEST(SimulateCenterTest, CentersPartitionTheGlobalTrace) {
  const MetaSpec spec = two_center_spec("cheapest-now");
  const run::JobSpec west = meta_job_spec(spec, 0);
  const run::JobSpec east = meta_job_spec(spec, 1);
  const sim::SimResult rw = run::execute_job_spec(west);
  const sim::SimResult re = run::execute_job_spec(east);
  const trace::Trace global = run::build_trace(west.trace);
  EXPECT_EQ(rw.records.size() + re.records.size(), global.size());
  EXPECT_NE(rw.trace_name, re.trace_name);
  EXPECT_GT(rw.records.size(), 0u);
  EXPECT_GT(re.records.size(), 0u);
}

TEST(MetaKeyTest, MetaSegmentAppearsOnlyOnMetaCells) {
  const MetaSpec spec = two_center_spec();
  const run::JobSpec meta_cell = meta_job_spec(spec, 1);
  run::JobSpec plain = meta_cell;
  plain.meta = nullptr;

  EXPECT_EQ(run::share_key(plain).find("|meta:"), std::string::npos);
  EXPECT_EQ(run::cell_key(plain).find("|meta:"), std::string::npos);
  const std::string meta_share = run::share_key(meta_cell);
  EXPECT_NE(meta_share.find("|meta:"), std::string::npos);
  EXPECT_NE(meta_share.find("#center:1"), std::string::npos);

  // Different centers of one scenario are different cells.
  const run::JobSpec other = meta_job_spec(spec, 0);
  EXPECT_NE(run::cell_key(meta_cell), run::cell_key(other));
}

TEST(MetaKeyTest, TzOffsetTokenAppearsOnlyWhenShifted) {
  run::JobSpec spec;
  spec.trace.source = "sdsc-blue";
  spec.trace.months = 1;
  const std::string base = run::share_key(spec);
  EXPECT_EQ(base.find("@tz"), std::string::npos);
  spec.pricing.tz_offset_min = 720;
  const std::string shifted = run::share_key(spec);
  EXPECT_NE(shifted.find("@tz720"), std::string::npos);
  EXPECT_NE(base, shifted);
  // A flat tariff has no period structure for the offset to shift.
  spec.pricing.model = "flat";
  EXPECT_EQ(run::share_key(spec).find("@tz"), std::string::npos);
}

TEST(MetaSweepTest, IdenticalMetaCellsCopyAndNeverRebill) {
  const MetaSpec spec = two_center_spec("cheapest-now");
  const trace::Trace global = uniform_trace(50);
  const auto shared = run::borrow(global);
  const auto pricing = run::build_pricing(spec.centers[0].pricing);

  const auto make_job = [&](std::uint32_t center) {
    run::SimJob job;
    job.trace = shared;
    job.pricing = run::borrow(*pricing);
    job.make_policy = [] { return core::make_policy_by_name("fcfs"); };
    auto js = std::make_shared<run::JobSpec>(meta_job_spec(spec, center));
    job.spec = js;
    return job;
  };
  // Two identical cells for center 0, one for center 1: the duplicate
  // must come back as a copy (same cell_key), and no meta cell may ever
  // take the rebill path (the outer tariff is unused, so a rebill would
  // bill the wrong tariff).
  const std::vector<run::SimJob> sweep = {make_job(0), make_job(0),
                                          make_job(1)};
  run::SweepRunner runner(1);
  const auto results = runner.run(sweep);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(runner.last_stats().copied_cells, 1u);
  EXPECT_EQ(runner.last_stats().rebilled_cells, 0u);
  EXPECT_TRUE(run::results_identical(results[0], results[1]));
  EXPECT_FALSE(run::results_identical(results[0], results[2]));
}

TEST(MetaSweepTest, SubprocessPoolMatchesInProcessByteForByte) {
  if (!run::SubprocessPool::available()) {
    GTEST_SKIP() << "esched-worker binary not found";
  }
  const MetaSpec spec = two_center_spec("cheapest-window");
  std::vector<run::JobSpec> cells = {meta_job_spec(spec, 0),
                                     meta_job_spec(spec, 1)};
  run::SubprocessPool pool;
  const auto remote = pool.run(cells);
  ASSERT_EQ(remote.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::SimResult local = run::execute_job_spec(cells[i]);
    EXPECT_TRUE(run::results_identical(local, remote[i])) << "center " << i;
  }
}

/// A four-center scenario, tariffs phase-shifted 6 h apart, the last
/// center half the size of the others so capacity gates some routing.
MetaSpec four_center_spec(const std::string& router, NodeCount nodes) {
  MetaSpec spec;
  spec.router = router;
  const char* const names[] = {"north", "east", "south", "west"};
  for (int c = 0; c < 4; ++c) {
    CenterSpec center;
    center.name = names[c];
    center.pricing.tz_offset_min = c * 6 * 60;
    spec.centers.push_back(center);
  }
  spec.centers[3].nodes = nodes / 2;
  return spec;
}

/// The carve as it was first written: append every routed job in global
/// order, then stable-sort by (submit, id).
trace::Trace resorted_carve(const trace::Trace& global, const MetaSpec& spec,
                            const RoutingPlan& plan, std::uint32_t center) {
  const CenterSpec& c = spec.centers[center];
  trace::Trace out(global.name() + "@" + c.name,
                   c.nodes != 0 ? c.nodes : global.system_nodes());
  for (std::size_t i = 0; i < global.size(); ++i) {
    if (plan.center[i] != center) continue;
    trace::Job job = global[i];
    if (plan.center[i] != plan.home[i]) job.submit += spec.move_penalty;
    out.mutable_jobs().push_back(job);
  }
  out.finalize();
  return out;
}

void expect_same_trace(const trace::Trace& a, const trace::Trace& b,
                       const std::string& what) {
  EXPECT_EQ(a.name(), b.name()) << what;
  EXPECT_EQ(a.system_nodes(), b.system_nodes()) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const trace::Job& x = a[i];
    const trace::Job& y = b[i];
    const bool same = x.id == y.id && x.submit == y.submit &&
                      x.runtime == y.runtime && x.walltime == y.walltime &&
                      x.nodes == y.nodes &&
                      x.power_per_node == y.power_per_node &&
                      x.user == y.user && x.queue == y.queue &&
                      x.preceding == y.preceding &&
                      x.think_time == y.think_time;
    ASSERT_TRUE(same) << what << ": first difference at position " << i
                      << " (id " << x.id << " vs " << y.id << ")";
  }
}

/// Three arrivals share each submit time and ids repeat every 7 jobs, so
/// equal (submit, id) keys occur within a stream and, once the move
/// penalty shifts arrivals, across the staying and moved streams. Each
/// job has a distinct runtime, so any reordering among equal keys shows.
trace::Trace tied_duplicate_trace() {
  trace::Trace trace("ties", 64);
  for (int i = 0; i < 240; ++i) {
    trace::Job job;
    job.id = static_cast<JobId>(i % 7 + 1);
    job.submit = static_cast<TimeSec>(i / 3) * 200;
    job.nodes = static_cast<NodeCount>(1 + (i * 5) % 40);
    job.runtime = 100 + i;
    job.walltime = 2000 + i;
    job.power_per_node = 40.0;
    job.user = i;
    trace.add_job(job);
  }
  return trace;
}

TEST(CarveTest, MatchesTheStableResortForEveryRouter) {
  std::vector<std::pair<std::string, trace::Trace>> globals;
  globals.emplace_back("ties+duplicate-ids", tied_duplicate_trace());
  globals.emplace_back("tied-pairs", uniform_trace(120, 0, 3));
  {
    run::TraceSpec ts;
    ts.months = 1;
    globals.emplace_back("sdsc-blue", run::build_trace(ts));
  }
  for (const auto& [trace_name, global] : globals) {
    for (const std::string& router : known_router_names()) {
      for (const std::uint32_t n : {2u, 4u}) {
        for (const DurationSec penalty : {0, 600, 86400}) {
          MetaSpec spec = n == 2 ? two_center_spec(router)
                                 : four_center_spec(router,
                                                    global.system_nodes());
          spec.move_penalty = penalty;
          const RoutingPlan plan = route_jobs(global, spec);
          for (std::uint32_t c = 0; c < n; ++c) {
            expect_same_trace(
                build_center_trace(global, spec, plan, c),
                resorted_carve(global, spec, plan, c),
                trace_name + " " + router + " N=" + std::to_string(n) +
                    " penalty=" + std::to_string(penalty) +
                    " center=" + std::to_string(c));
          }
        }
      }
    }
  }
}

/// Run `spec` on a thread of its own: a new thread starts with an empty
/// memo, so this is a fresh build of everything the cell names.
sim::SimResult execute_fresh(const run::JobSpec& spec) {
  sim::SimResult result;
  std::thread([&] { result = run::execute_job_spec(spec); }).join();
  return result;
}

std::uint64_t counter_value(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

/// Cells over traces A, B, A, plain and multi-center, with two routing
/// scenarios on trace A. Plain cells rebuild their trace and leave the
/// memo alone.
std::vector<run::JobSpec> interleaved_cells() {
  run::TraceSpec a;
  a.months = 1;
  a.seed = 11;
  run::TraceSpec b = a;
  b.seed = 12;
  const MetaSpec x = two_center_spec("cheapest-now");
  MetaSpec y = two_center_spec("balanced-cost");
  y.move_penalty = 600;

  const auto plain = [](const run::TraceSpec& ts, const std::string& policy) {
    run::JobSpec spec;
    spec.trace = ts;
    spec.policy.name = policy;
    return spec;
  };
  const auto cell = [](const run::TraceSpec& ts, const MetaSpec& meta,
                       std::uint32_t center) {
    run::JobSpec spec = meta_job_spec(meta, center);
    spec.trace = ts;
    return spec;
  };
  return {plain(a, "fcfs"),  plain(b, "fcfs"),  plain(a, "knapsack"),
          cell(a, x, 0),     cell(a, x, 1),     cell(a, y, 0),
          cell(a, y, 1),     cell(a, x, 1),     cell(b, x, 0),
          cell(a, y, 1),     cell(b, x, 1),     plain(a, "greedy")};
}

TEST(TraceMemoTest, InterleavedCellsOnOneThreadMatchFreshRuns) {
  const std::vector<run::JobSpec> cells = interleaved_cells();
  obs::set_counters_enabled(true);
  const std::uint64_t trace_hits = counter_value("run.trace_memo.hits");
  const std::uint64_t trace_misses = counter_value("run.trace_memo.misses");
  const std::uint64_t plan_hits = counter_value("meta.plan_memo.hits");
  const std::uint64_t plan_misses = counter_value("meta.plan_memo.misses");
  std::vector<sim::SimResult> memoized;
  for (const run::JobSpec& spec : cells) {
    memoized.push_back(run::execute_job_spec(spec));
  }
  const std::uint64_t new_trace_hits =
      counter_value("run.trace_memo.hits") - trace_hits;
  const std::uint64_t new_trace_misses =
      counter_value("run.trace_memo.misses") - trace_misses;
  const std::uint64_t new_plan_hits =
      counter_value("meta.plan_memo.hits") - plan_hits;
  const std::uint64_t new_plan_misses =
      counter_value("meta.plan_memo.misses") - plan_misses;
  obs::set_counters_enabled(false);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(run::results_identical(memoized[i], execute_fresh(cells[i])))
        << "cell " << i;
  }
  // Trace (meta cells only): A miss, A hits through cell 7, then B miss,
  // A miss, B miss.
  EXPECT_EQ(new_trace_hits, 4u);
  EXPECT_EQ(new_trace_misses, 4u);
  // Plans: x@A miss, hit, y@A miss, hit, x@A miss, x@B miss, y@A miss,
  // x@B miss.
  EXPECT_EQ(new_plan_hits, 2u);
  EXPECT_EQ(new_plan_misses, 6u);
}

TEST(TraceMemoTest, TwoThreadSweepOfInterleavedMetaCellsMatchesFreshRuns) {
  std::vector<run::JobSpec> cells;
  for (const run::JobSpec& spec : interleaved_cells()) {
    if (spec.meta != nullptr) cells.push_back(spec);
  }
  // Sharing off, so the repeated cells are simulated too rather than
  // copied; the SimJob pointer members are unused by meta cells.
  const trace::Trace placeholder = uniform_trace(4);
  const auto pricing = run::build_pricing(run::PricingSpec{});
  std::vector<run::SimJob> sweep;
  for (const run::JobSpec& spec : cells) {
    run::SimJob job;
    job.trace = run::borrow(placeholder);
    job.pricing = run::borrow(*pricing);
    job.make_policy = [] { return core::make_policy_by_name("fcfs"); };
    job.spec = std::make_shared<run::JobSpec>(spec);
    sweep.push_back(std::move(job));
  }
  run::SweepRunner runner(2);
  runner.set_prefix_sharing(false);
  const std::vector<sim::SimResult> results = runner.run(sweep);
  ASSERT_EQ(results.size(), cells.size());
  EXPECT_EQ(runner.last_stats().copied_cells, 0u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(run::results_identical(results[i], execute_fresh(cells[i])))
        << "cell " << i;
  }
}

/// Write a small SWF trace of `jobs` jobs to `path`.
void write_swf(const std::string& path, int jobs) {
  trace::Trace trace("swf", 64);
  for (int i = 0; i < jobs; ++i) {
    trace::Job job;
    job.id = static_cast<JobId>(i + 1);
    job.submit = static_cast<TimeSec>(i) * 900;
    job.nodes = 1 + i % 8;
    job.runtime = 600 + 10 * i;
    job.walltime = 1800 + 10 * i;
    trace.add_job(job);
  }
  std::ofstream out(path, std::ios::trunc);
  trace::swf::save(out, trace, /*with_power_column=*/false);
}

TEST(TraceMemoTest, SwfTracesReloadWhenTheFileChanges) {
  const std::string path = testing::TempDir() + "meta_memo_test.swf";
  run::JobSpec plain;
  plain.trace.source = "swf";
  plain.trace.swf_path = path;
  run::JobSpec meta = meta_job_spec(two_center_spec("cheapest-now"), 1);
  meta.trace = plain.trace;

  for (const run::JobSpec& spec : {plain, meta}) {
    write_swf(path, 40);
    const sim::SimResult before = run::execute_job_spec(spec);
    write_swf(path, 90);
    const sim::SimResult after = run::execute_job_spec(spec);
    EXPECT_FALSE(run::results_identical(before, after));
    EXPECT_TRUE(run::results_identical(after, execute_fresh(spec)));
    write_swf(path, 40);
    EXPECT_TRUE(run::results_identical(run::execute_job_spec(spec), before));
  }
  std::remove(path.c_str());
}

TEST(TraceMemoTest, FailedRoutingLeavesNoPlanCached) {
  // Both centers of `tight` have one node, so the wider jobs of the
  // one-month sdsc-blue trace fit nowhere and routing throws. Good, bad,
  // bad, good on one thread: each bad cell must route afresh and throw
  // (a plan cached under its key would let the second one return the
  // good scenario's plan), and the failed build must have released the
  // good plan, so the last cell routes again and matches a fresh run.
  MetaSpec tight = two_center_spec("home");
  tight.centers[0].nodes = 1;
  tight.centers[1].nodes = 1;
  const run::JobSpec bad = meta_job_spec(tight, 0);
  const run::JobSpec good = meta_job_spec(two_center_spec("home"), 0);

  obs::set_counters_enabled(true);
  run::execute_job_spec(good);
  const std::uint64_t plan_hits = counter_value("meta.plan_memo.hits");
  const std::uint64_t plan_misses = counter_value("meta.plan_memo.misses");
  EXPECT_THROW(run::execute_job_spec(bad), Error);
  EXPECT_EQ(counter_value("meta.plan_memo.misses") - plan_misses, 1u);
  EXPECT_THROW(run::execute_job_spec(bad), Error);
  EXPECT_EQ(counter_value("meta.plan_memo.misses") - plan_misses, 2u);
  const sim::SimResult after = run::execute_job_spec(good);
  EXPECT_EQ(counter_value("meta.plan_memo.misses") - plan_misses, 3u);
  EXPECT_EQ(counter_value("meta.plan_memo.hits"), plan_hits);
  obs::set_counters_enabled(false);
  EXPECT_TRUE(run::results_identical(after, execute_fresh(good)));
}

}  // namespace
}  // namespace esched::meta
