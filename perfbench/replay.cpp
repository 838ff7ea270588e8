#include "replay.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "meta/metascheduler.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/spec.hpp"
#include "run/wire.hpp"
#include "sim/simulator.hpp"
#include "svc/journal.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace run = esched::run;
namespace wire = esched::run::wire;
using esched::run::JobSpec;
using esched::sim::SimResult;

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// The layers whose self times partition the traced wall time. kResidual
/// is the self time of the root and per-cell spans: the replay's own
/// glue between layer calls.
enum Layer : std::size_t {
  kTrace,
  kRoute,
  kCarve,
  kSim,
  kCore,
  kRebill,
  kPlan,
  kCopy,
  kEncode,
  kDecode,
  kJournal,
  kResidual,
  kLayers
};

struct LayerInfo {
  const char* span;      ///< span name in the trace file
  const char* category;  ///< the repo module the call belongs to
  const char* metric;    ///< self-time metric name
};

constexpr LayerInfo kLayer[kLayers] = {
    {"trace.build", "trace", "trace.build_s"},
    {"meta.route", "meta", "meta.route_s"},
    {"meta.carve", "meta", "meta.carve_s"},
    {"sim.simulate", "sim", "sim.self_s"},
    {"core.prioritize", "core", "core.prioritize_s"},
    {"power.rebill", "power", "power.rebill_s"},
    {"run.plan", "run", "run.plan_s"},
    {"run.copy", "run", "run.copy_s"},
    {"run.wire.encode", "run.wire", "run.wire.encode_s"},
    {"run.wire.decode", "run.wire", "run.wire.decode_s"},
    {"svc.journal.append", "svc", "svc.journal.append_s"},
    {"replay", "obs", "obs.residual_s"},
};

/// Trace-file tracks: the nested layer spans, and the per-cell
/// prioritize aggregates beside them.
constexpr std::uint32_t kSpanTrack = 1;
constexpr std::uint32_t kAggregateTrack = 2;

/// Span bookkeeping. Untraced, every call runs bare. Traced, each call
/// is a span nested in the enclosing one (its parent), kept in memory
/// until write(); closing a span credits its layer with self time =
/// duration - children.
class Spans {
 public:
  explicit Spans(bool traced) : traced_(traced) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool traced() const { return traced_; }

  template <class F>
  auto call(Layer layer, F&& fn) {
    return scoped(layer, kLayer[layer].span, std::forward<F>(fn));
  }

  template <class F>
  auto scoped(Layer layer, std::string name, F&& fn) {
    if (!traced_) return fn();
    stack_.push_back({layer, std::move(name), Clock::now(), 0.0});
    const Closer closer{this};
    return fn();
  }

  /// Credit `calls` calls totalling `seconds`, made inside the innermost
  /// open span, to `layer`, as one aggregate span starting at `begin`.
  void aggregate(Layer layer, Clock::time_point begin, double seconds,
                 std::uint64_t calls) {
    self_[layer] += seconds;
    calls_[layer] += calls;
    stack_.back().children += seconds;
    const auto end =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    closed_.push_back({std::string(kLayer[layer].span) + " x" +
                           std::to_string(calls),
                       layer, begin, end, kAggregateTrack});
  }

  /// Emit every recorded span as a Chrome "X" event; nesting in time on
  /// one track is what the viewer draws as the parent link.
  void write(esched::obs::Tracer& tracer) const {
    for (const Closed& span : closed_) {
      tracer.complete_span(span.name, kLayer[span.layer].category,
                           span.begin, span.end, span.track);
    }
  }

  double self(Layer layer) const { return self_[layer]; }
  std::uint64_t calls(Layer layer) const { return calls_[layer]; }
  /// Inclusive duration of every closed span of `layer`, in close order.
  const std::vector<double>& durations(Layer layer) const {
    return durations_[layer];
  }

 private:
  struct Open {
    Layer layer;
    std::string name;
    Clock::time_point begin;
    double children = 0.0;
  };
  struct Closed {
    std::string name;
    Layer layer;
    Clock::time_point begin;
    Clock::time_point end;
    std::uint32_t track;
  };
  struct Closer {
    Spans* spans;
    ~Closer() { spans->close(); }
  };

  void close() {
    const Clock::time_point end = Clock::now();
    Open top = std::move(stack_.back());
    stack_.pop_back();
    const double duration = seconds_between(top.begin, end);
    self_[top.layer] += duration - top.children;
    ++calls_[top.layer];
    durations_[top.layer].push_back(duration);
    if (!stack_.empty()) stack_.back().children += duration;
    closed_.push_back(
        {std::move(top.name), top.layer, top.begin, end, kSpanTrack});
  }

  bool traced_;
  std::vector<Open> stack_;
  std::vector<Closed> closed_;
  double self_[kLayers] = {};
  std::uint64_t calls_[kLayers] = {};
  std::vector<double> durations_[kLayers];
};

/// Forwards every call to the wrapped policy and times prioritize().
class TimedPolicy final : public esched::core::SchedulingPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> prioritize(
      std::span<const esched::core::PendingJob> window,
      const esched::core::ScheduleContext& ctx) override {
    const Clock::time_point begin = Clock::now();
    std::vector<std::size_t> order = inner_->prioritize(window, ctx);
    seconds_ += seconds_between(begin, Clock::now());
    ++calls_;
    window_jobs_ += window.size();
    return order;
  }
  bool strict_order() const override { return inner_->strict_order(); }
  esched::Watts power_budget(
      const esched::core::ScheduleContext& ctx) const override {
    return inner_->power_budget(ctx);
  }

  double seconds() const { return seconds_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t window_jobs() const { return window_jobs_; }

 private:
  std::unique_ptr<SchedulingPolicy> inner_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
  std::uint64_t window_jobs_ = 0;
};

/// What one replay pass produced besides its span times.
struct Pass {
  std::vector<SimResult> results;  ///< submission order (fleet: cold, warm)
  double wall_s = 0.0;
  std::vector<double> cell_seconds;  ///< cells that simulated
  std::uint64_t window_jobs = 0;
  std::uint64_t jobs_moved = 0;
  std::uint64_t signal_points = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_entries = 0;
};

/// Simulate one cell (recording its power signal when `signal` is set).
SimResult simulate_cell(Spans& spans, Pass& pass,
                        const esched::trace::Trace& trace,
                        const esched::power::PricingModel& pricing,
                        const run::PolicySpec& policy_spec,
                        const esched::sim::SimConfig& config,
                        esched::sim::PowerSignal* signal) {
  std::unique_ptr<esched::core::SchedulingPolicy> policy =
      run::build_policy(policy_spec);
  TimedPolicy* timed = nullptr;
  if (spans.traced()) {
    auto wrapper = std::make_unique<TimedPolicy>(std::move(policy));
    timed = wrapper.get();
    policy = std::move(wrapper);
  }
  return spans.call(kSim, [&] {
    const Clock::time_point begin = Clock::now();
    SimResult result;
    if (signal != nullptr) {
      esched::sim::Simulation simulation(trace, pricing, *policy, config);
      simulation.record_power_signal(signal);
      result = simulation.finish();
    } else {
      result = esched::sim::simulate(trace, pricing, *policy, config);
    }
    if (timed != nullptr) {
      spans.aggregate(kCore, begin, timed->seconds(), timed->calls());
      pass.window_jobs += timed->window_jobs();
    }
    return result;
  });
}

/// The worker's half of an out-of-process cell: rebuild and simulate
/// the decoded spec (run::execute_job_spec / meta::simulate_center call
/// order), answer with a kResult frame.
std::vector<std::uint8_t> execute_cell(Spans& spans, Pass& pass,
                                       const JobSpec& job,
                                       std::uint32_t task) {
  const esched::trace::Trace trace =
      spans.call(kTrace, [&] { return run::build_trace(job.trace); });
  SimResult result;
  if (job.meta != nullptr) {
    const esched::meta::MetaSpec& meta = *job.meta;
    const esched::meta::CenterSpec& center = meta.centers.at(job.meta_center);
    const esched::meta::RoutingPlan plan = spans.call(
        kRoute, [&] { return esched::meta::route_jobs(trace, meta); });
    pass.jobs_moved += plan.moved;
    const auto pricing = run::build_pricing(center.pricing);
    const esched::trace::Trace local = spans.call(kCarve, [&] {
      return esched::meta::build_center_trace(trace, meta, plan,
                                              job.meta_center);
    });
    result = simulate_cell(spans, pass, local, *pricing, center.policy,
                           job.config, nullptr);
  } else {
    const auto pricing = run::build_pricing(job.pricing);
    result = simulate_cell(spans, pass, trace, *pricing, job.policy,
                           job.config, nullptr);
  }
  return spans.call(kEncode, [&] {
    const std::vector<std::uint8_t> payload = wire::encode_result(result);
    pass.result_bytes += payload.size();
    return wire::encode_frame(wire::FrameType::kResult, task, 0, payload);
  });
}

/// Check a frame's header and CRC and return its payload.
std::vector<std::uint8_t> frame_payload(
    const std::vector<std::uint8_t>& frame) {
  const wire::FrameHeader header = wire::decode_header(frame.data());
  ESCHED_REQUIRE(frame.size() == wire::kHeaderSize + header.payload_size &&
                     wire::verify_payload(header,
                                          frame.data() + wire::kHeaderSize),
                 "perfbench: corrupt frame in replay");
  return {frame.begin() + static_cast<std::ptrdiff_t>(wire::kHeaderSize),
          frame.end()};
}

/// Run the traced trace builds of the client/driver side (build_jobs).
std::vector<run::SimJob> setup_jobs(Spans& spans, const Workload& w) {
  return build_jobs(w, [&](const run::TraceSpec& spec) {
    return spans.call(kTrace, [&] { return run::build_trace(spec); });
  });
}

std::string cell_name(const JobSpec& spec) {
  return std::string("cell:") + spec.label;
}

/// SweepRunner: plan, leaders (submission order), then followers.
void replay_in_process(Spans& spans, Pass& pass, const Workload& w) {
  const std::vector<run::SimJob> jobs = setup_jobs(spans, w);
  enum class Kind { kSimulate, kCopy, kRebill };
  struct Plan {
    Kind kind = Kind::kSimulate;
    std::size_t src = 0;
    bool record = false;
  };
  const std::vector<Plan> plan = spans.call(kPlan, [&] {
    std::vector<Plan> out(w.cells.size());
    std::map<std::string, std::size_t> cell_leader;
    std::map<std::string, std::size_t> share_leader;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const auto [it, fresh] =
          cell_leader.emplace(run::cell_key(w.cells[i]), i);
      if (!fresh) {
        out[i] = {Kind::kCopy, it->second, false};
        continue;
      }
      if (w.cells[i].meta != nullptr) continue;
      const auto [lead, first] =
          share_leader.emplace(run::share_key(w.cells[i]), i);
      if (!first) {
        out[i] = {Kind::kRebill, lead->second, false};
        out[lead->second].record = true;
      }
    }
    return out;
  });

  std::vector<esched::sim::PowerSignal> signals(w.cells.size());
  pass.results.resize(w.cells.size());
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (plan[i].kind != Kind::kSimulate) continue;
    spans.scoped(kResidual, cell_name(w.cells[i]), [&] {
      pass.results[i] = simulate_cell(
          spans, pass, *jobs[i].trace, *jobs[i].pricing, w.cells[i].policy,
          jobs[i].config, plan[i].record ? &signals[i] : nullptr);
    });
    if (spans.traced()) {
      pass.cell_seconds.push_back(spans.durations(kResidual).back());
    }
    pass.signal_points += signals[i].times.size();
  }
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (plan[i].kind == Kind::kSimulate) continue;
    spans.scoped(kResidual, cell_name(w.cells[i]), [&] {
      const std::size_t src = plan[i].src;
      pass.results[i] =
          spans.call(kCopy, [&] { return pass.results[src]; });
      if (plan[i].kind == Kind::kRebill) {
        spans.call(kRebill, [&] {
          esched::sim::rebill(pass.results[i], signals[src],
                              *jobs[i].pricing);
        });
      }
    });
  }
}

/// SubprocessPool: group by cell key, then one supervisor/worker round
/// trip per distinct cell; duplicates copy their representative.
void replay_proc(Spans& spans, Pass& pass, const Workload& w) {
  setup_jobs(spans, w);
  const run::CellGroups groups =
      spans.call(kPlan, [&] { return run::group_cells(w.cells, true); });
  pass.results.resize(w.cells.size());
  for (std::size_t u = 0; u < groups.unique_indices.size(); ++u) {
    const std::size_t i = groups.unique_indices[u];
    const auto task = static_cast<std::uint32_t>(u);
    spans.scoped(kResidual, cell_name(w.cells[i]), [&] {
      const std::vector<std::uint8_t> job_frame = spans.call(kEncode, [&] {
        return wire::encode_frame(wire::FrameType::kJob, task, 0,
                                  wire::encode_job(w.cells[i]));
      });
      const JobSpec job = spans.call(
          kDecode, [&] { return wire::decode_job(frame_payload(job_frame)); });
      const std::vector<std::uint8_t> answer =
          execute_cell(spans, pass, job, task);
      pass.results[i] = spans.call(kDecode, [&] {
        return wire::decode_result(frame_payload(answer));
      });
    });
    if (spans.traced()) {
      pass.cell_seconds.push_back(spans.durations(kResidual).back());
    }
  }
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const std::size_t rep = groups.unique_indices[groups.rep[i]];
    if (rep == i) continue;
    pass.results[i] = spans.call(kCopy, [&] { return pass.results[rep]; });
  }
}

/// CoordinatorClient -> esched-coordinator -> agentd worker, twice: the
/// cold pass simulates and journals every cell, the warm pass is served
/// from the journal's bytes.
void replay_fleet(Spans& spans, Pass& pass, const Workload& w,
                  const std::string& journal_path) {
  setup_jobs(spans, w);
  std::remove(journal_path.c_str());
  esched::svc::Journal journal;
  journal.open(journal_path, run::FaultPlan{},
               [](const wire::JournalRecord&) {});
  std::map<std::string, std::vector<std::uint8_t>> store;
  const std::size_t n = w.cells.size();
  pass.results.resize(2 * n);
  for (const char* sweep_id : {"perfbench-cold", "perfbench-warm"}) {
    const bool cold = store.empty();
    const std::vector<std::uint8_t> submit = spans.call(kEncode, [&] {
      return wire::encode_frame(wire::FrameType::kSubmit, 0, 0,
                                wire::encode_submit({sweep_id, w.cells}));
    });
    const wire::SubmitRequest request = spans.call(
        kDecode, [&] { return wire::decode_submit(frame_payload(submit)); });
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::string> keys;
    for (const JobSpec& spec : request.specs) {
      payloads.push_back(
          spans.call(kEncode, [&] { return wire::encode_job(spec); }));
      keys.push_back(spans.call(kPlan, [&] { return run::cell_key(spec); }));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto task = static_cast<std::uint32_t>(i);
      spans.scoped(kResidual, cell_name(w.cells[i]), [&] {
        std::vector<std::uint8_t> result_bytes;
        if (cold) {
          const JobSpec job = spans.call(kDecode, [&] {
            return wire::decode_job(payloads[i]);
          });
          result_bytes = frame_payload(execute_cell(spans, pass, job, task));
          spans.call(kJournal, [&] {
            ESCHED_REQUIRE(journal.append({keys[i], result_bytes}, task, 0),
                           "perfbench: journal append failed");
          });
          store[keys[i]] = result_bytes;
        } else {
          result_bytes = store.at(keys[i]);
        }
        const std::vector<std::uint8_t> done = spans.call(kEncode, [&] {
          return wire::encode_frame(wire::FrameType::kCellDone, task, 0,
                                    result_bytes);
        });
        pass.results[(cold ? 0 : n) + i] = spans.call(kDecode, [&] {
          return wire::decode_result(frame_payload(done));
        });
      });
      if (cold && spans.traced()) {
        pass.cell_seconds.push_back(spans.durations(kResidual).back());
      }
    }
  }
  pass.journal_bytes = journal.bytes();
  pass.journal_entries = journal.entries();
}

std::vector<std::uint64_t> hashes_of(const std::vector<SimResult>& results) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(results.size());
  for (const SimResult& r : results) hashes.push_back(result_hash(r));
  return hashes;
}

Pass replay(Spans& spans, const Workload& w, const std::string& journal_path) {
  Pass pass;
  const Clock::time_point begin = Clock::now();
  spans.scoped(kResidual, std::string("replay:") + w.name, [&] {
    switch (w.plane) {
      case Plane::kInProcess:
        replay_in_process(spans, pass, w);
        break;
      case Plane::kProc:
        replay_proc(spans, pass, w);
        break;
      case Plane::kFleet:
        replay_fleet(spans, pass, w, journal_path);
        break;
    }
  });
  pass.wall_s = seconds_between(begin, Clock::now());
  return pass;
}

}  // namespace

Report replay_layers(const Workload& workload, const std::string& trace_out,
                     const std::string& scratch_dir) {
  ESCHED_REQUIRE(!trace_out.empty(), "perfbench: trace needs --trace-out");
  ESCHED_REQUIRE(!scratch_dir.empty(), "perfbench: trace needs --scratch");
  const std::string journal_path = scratch_dir + "/replay.journal";

  // The untraced baseline runs before and after the traced pass, so a
  // drift in host speed shows in neither direction. Only hashes are
  // kept, so no two passes' results are in memory together.
  const auto untraced_pass = [&](std::vector<std::uint64_t>& hashes) {
    Spans untraced(false);
    const Pass base = replay(untraced, workload, journal_path);
    hashes = hashes_of(base.results);
    return base.wall_s;
  };
  std::vector<std::uint64_t> before;
  std::vector<std::uint64_t> after;
  const double before_s = untraced_pass(before);

  esched::obs::Registry& registry = esched::obs::Registry::global();
  registry.reset();
  esched::obs::set_counters_enabled(true);
  // Opened first: the tracer's epoch must precede every span.
  esched::obs::Tracer tracer;
  tracer.open(trace_out);
  Spans spans(true);
  Pass pass = replay(spans, workload, journal_path);
  esched::obs::set_counters_enabled(false);
  spans.write(tracer);
  tracer.close();
  const std::vector<std::uint64_t> hashes = hashes_of(pass.results);
  pass.results = {};

  const double untraced_wall_s = (before_s + untraced_pass(after)) / 2;
  ESCHED_REQUIRE(before == hashes && after == hashes,
                 "perfbench: traced and untraced replays differ");

  // The root span closes last; its duration is what the self times sum to.
  const double traced_wall_s = spans.durations(kResidual).back();
  Report out;
  double simulate_s = 0.0;
  for (const double d : spans.durations(kSim)) simulate_s += d;
  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    out.num(kLayer[layer].metric, spans.self(static_cast<Layer>(layer)));
  }
  const auto counter = [&](const char* name) {
    return registry.counter(name).value();
  };
  out.count("trace.build_calls", spans.calls(kTrace))
      .count("meta.route_calls", spans.calls(kRoute))
      .count("meta.jobs_moved", pass.jobs_moved)
      .num("sim.simulate_s", simulate_s)
      .count("sim.events_processed", counter("sim.events_processed"))
      .count("sim.eventq_reallocs", counter("sim.eventq_reallocs"))
      .count("sim.scheduler_passes", counter("sim.scheduler_passes"))
      .count("core.prioritize_calls", spans.calls(kCore))
      .count("core.window_jobs", pass.window_jobs)
      .count("knapsack.dp_cells", counter("knapsack.dp_cells"))
      .count("knapsack.solves", counter("knapsack.solves"))
      .count("sched.backfill_attempts", counter("sched.backfill_attempts"))
      .count("power.signal_points", pass.signal_points)
      .num("run.cell_p50_s", quantile(pass.cell_seconds, 0.5))
      .num("run.cell_p90_s", quantile(pass.cell_seconds, 0.9))
      .count("run.cell_samples", pass.cell_seconds.size())
      .num("run.rebill_p50_s", quantile(spans.durations(kRebill), 0.5))
      .count("run.rebill_samples", spans.durations(kRebill).size())
      .count("run.wire.result_bytes", pass.result_bytes)
      .count("svc.journal.bytes", pass.journal_bytes)
      .count("svc.journal.entries", pass.journal_entries)
      .num("obs.traced_wall_s", traced_wall_s)
      .num("obs.untraced_wall_s", untraced_wall_s)
      .num("obs.trace_overhead", traced_wall_s / untraced_wall_s - 1.0)
      .hashes("hashes", hashes);
  return out;
}

}  // namespace perfbench
