#include "net/distributed.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <poll.h>

#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/endpoint.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::net {

namespace {

using Clock = run::EndpointClock;
namespace wire = run::wire;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One sweep over the fleet, the TCP sibling of the Supervisor in
/// run/proc.cpp: the TaskLedger decides what runs and how often, the
/// AgentFleet runs it. Every socket is owned by the fleet, so unwinding
/// (budget exhaustion, kError fail-fast) closes all connections via RAII
/// — the agents then discard orphaned work.
class SweepRun final : public FleetOwner {
 public:
  SweepRun(const DistributedPoolConfig& config,
           const std::vector<run::JobSpec>& sweep, run::SweepStats& stats,
           const run::ProgressCallback& progress, obs::Tracer* tracer,
           obs::FleetAggregator* telemetry)
      : config_(config),
        sweep_(sweep),
        stats_(stats),
        progress_(progress),
        tracer_(tracer),
        fleet_(config.agents, config, config.auth_token, *this) {
    fleet_.set_tracer(tracer);
    fleet_.set_telemetry(telemetry);
  }
  SweepRun(const SweepRun&) = delete;  // the fleet holds `this`
  SweepRun& operator=(const SweepRun&) = delete;

  std::vector<sim::SimResult> run() {
    const std::size_t n = sweep_.size();
    results_.resize(n);
    payloads_.reserve(n);
    for (const run::JobSpec& spec : sweep_) {
      payloads_.push_back(wire::encode_job(spec));  // throws on bad spec
    }
    wall_start_ = Clock::now();
    run::RetryPolicy retry;
    retry.max_attempts = config_.max_attempts;
    retry.backoff_initial_seconds = config_.backoff_initial_seconds;
    retry.backoff_max_seconds = config_.backoff_max_seconds;
    ledger_.emplace(sweep_, retry, wall_start_);
    stats_.worker_busy_seconds.assign(config_.agents.size(), 0.0);
    fleet_.start(wall_start_);

    while (!ledger_->all_done()) step();

    disconnect_all();
    stats_.wall_seconds = seconds_since(wall_start_);
    finalize_task_stats();
    std::vector<sim::SimResult> out;
    out.reserve(n);
    for (sim::SimResult& r : results_) out.push_back(std::move(r));
    return out;
  }

  /// Close every connection and capture the fleet picture into the
  /// stats, on success and failure alike. Never throws.
  void disconnect_all() noexcept {
    const Clock::time_point now = Clock::now();
    stats_.agent_liveness = fleet_.liveness(now);
    stats_.threads = fleet_.peak_ready_slots();
    fleet_.close_all(now);
  }

 private:
  void step() {
    const Clock::time_point now = Clock::now();
    fleet_.advance(now);
    throw_if_no_usable_agents(now);
    fleet_.dispatch(now);

    std::vector<struct pollfd> fds;
    fleet_.add_poll_fds(fds);
    std::optional<Clock::time_point> wake = fleet_.next_wakeup();
    Clock::time_point ready{};
    if (ledger_->next_ready_at(ready) && (!wake || ready < *wake)) {
      wake = ready;
    }
    const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                          static_cast<nfds_t>(fds.size()),
                          poll_timeout_ms(now, wake));
    if (rc < 0 && errno != EINTR) {
      throw Error("DistributedPool: poll failed: " +
                  std::string(std::strerror(errno)));
    }
    if (rc > 0) fleet_.on_poll(fds.data());
    fleet_.check_timers(Clock::now());
  }

  // ---- FleetOwner -----------------------------------------------------

  bool claim(Clock::time_point now, Job& job) override {
    const std::size_t task = ledger_->claim_ready(now);
    if (task == run::kNoTask) return false;  // none pending, or all gated
    job.task = task;
    job.attempt = ledger_->begin_attempt(task);
    job.payload = &payloads_[task];
    return true;
  }

  std::string on_result(std::size_t agent, const run::Endpoint& slot,
                        std::vector<std::uint8_t>& body,
                        Clock::time_point now) override {
    sim::SimResult result;
    try {
      result = wire::decode_result(body);
    } catch (const Error& e) {
      return e.what();
    }
    const std::size_t task = slot.task;
    const double seconds =
        std::chrono::duration<double>(now - slot.dispatched).count();
    if (tracer_ != nullptr && tracer_->enabled()) {
      const std::uint32_t track =
          kAgentTrackBase + static_cast<std::uint32_t>(agent);
      tracer_->complete_span(
          "cell:" +
              (sweep_[task].label.empty() ? std::to_string(task)
                                          : sweep_[task].label) +
              "#" + std::to_string(slot.attempt),
          "net", slot.dispatched, now, track);
      if (sweep_[task].parent_span_id != 0) {
        // Flow start anchored on the dispatch span; the matching finish
        // is emitted when the fleet aggregator stitches the remote
        // simulate span carrying the same id.
        tracer_->flow_event('s', sweep_[task].parent_span_id, "dispatch",
                            "net", 1, track, slot.dispatched);
      }
    }
    if (obs::counters_enabled()) {
      obs::Registry::global()
          .timer("net.task")
          .record(static_cast<std::uint64_t>(seconds * 1e9));
    }
    results_[task] = std::move(result);
    ledger_->complete(task);
    task_seconds_.push_back(seconds);
    stats_.worker_busy_seconds[agent] += seconds;
    if (progress_) {
      run::SweepProgress p;
      p.done = ledger_->done_count();
      p.total = sweep_.size();
      p.elapsed_seconds = seconds_since(wall_start_);
      p.eta_seconds = p.elapsed_seconds / static_cast<double>(p.done) *
                      static_cast<double>(p.total - p.done);
      progress_(p);
    }
    return {};
  }

  void on_requeue(std::size_t task, const std::string& reason,
                  Clock::time_point now) override {
    ledger_->fail_attempt(task, reason, now);  // throws on budget
  }

  void on_error(std::size_t task, const std::string& message) override {
    ledger_->fail_deterministic(task, message);
  }

  bool keep_connecting(std::size_t /*agent*/,
                       std::uint32_t failures) override {
    return failures < config_.connect_attempts;
  }

  // ---- termination ----------------------------------------------------

  void throw_if_no_usable_agents(Clock::time_point now) const {
    if (!fleet_.all_abandoned()) return;
    std::string detail;
    for (const run::AgentLiveness& live : fleet_.liveness(now)) {
      if (!detail.empty()) detail += "; ";
      detail += live.addr + ": " + live.last_error;
    }
    throw Error("DistributedPool: no usable agents remain (" + detail + ")");
  }

  void finalize_task_stats() {
    stats_.tasks = sweep_.size();
    stats_.sim_latency = run::latency_stats(task_seconds_);
    if (task_seconds_.empty()) return;
    stats_.task_min_seconds = task_seconds_.front();
    stats_.task_max_seconds = task_seconds_.front();
    for (const double s : task_seconds_) {
      stats_.cpu_seconds += s;
      stats_.task_min_seconds = std::min(stats_.task_min_seconds, s);
      stats_.task_max_seconds = std::max(stats_.task_max_seconds, s);
    }
    stats_.task_mean_seconds =
        stats_.cpu_seconds / static_cast<double>(task_seconds_.size());
  }

  const DistributedPoolConfig& config_;
  const std::vector<run::JobSpec>& sweep_;
  run::SweepStats& stats_;
  const run::ProgressCallback& progress_;
  obs::Tracer* tracer_;
  AgentFleet fleet_;

  std::optional<run::TaskLedger> ledger_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<sim::SimResult> results_;
  std::vector<double> task_seconds_;
  Clock::time_point wall_start_{};
};

}  // namespace

DistributedPool::DistributedPool(DistributedPoolConfig config)
    : config_(std::move(config)) {
  ESCHED_REQUIRE(config_.max_attempts >= 1,
                 "DistributedPool: max_attempts must be >= 1");
}

std::vector<HostPort> DistributedPool::agents_from_env() {
  const char* env = std::getenv("ESCHED_AGENTS");
  if (env == nullptr) return {};
  return parse_agent_list(env);
}

bool DistributedPool::any_agent_reachable(const std::vector<HostPort>& agents,
                                          double timeout_seconds) {
  for (const HostPort& addr : agents) {
    std::string error;
    Fd fd = connect_tcp_start(addr, error);
    if (!fd.valid()) continue;
    struct pollfd pfd = {fd.get(), POLLOUT, 0};
    const int timeout_ms = static_cast<int>(
        std::ceil(std::max(0.0, timeout_seconds) * 1000.0));
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) continue;  // timeout or error: try the next agent
    if (connect_tcp_finish(fd.get(), error)) return true;
  }
  return false;
}

std::vector<sim::SimResult> DistributedPool::run(
    const std::vector<run::JobSpec>& sweep) {
  stats_ = run::SweepStats{};
  stats_.tasks = sweep.size();
  if (sweep.empty()) return {};
  ESCHED_REQUIRE(!config_.agents.empty(),
                 "DistributedPool: no agents configured (pass "
                 "DistributedPoolConfig::agents or set ESCHED_AGENTS)");

  // Identical-cell dedup, exactly as in SubprocessPool::run: only
  // representatives of each distinct cell_key cross the wire; duplicates
  // copy the representative's (bit-identical) result afterwards.
  const run::CellGroups groups = run::group_cells(
      sweep, run::SweepRunner::prefix_sharing_default());
  std::vector<run::JobSpec> uniques;
  uniques.reserve(groups.unique_indices.size());
  for (const std::size_t i : groups.unique_indices) {
    uniques.push_back(sweep[i]);
  }
  if (telemetry_ != nullptr) {
    // Stamp each dispatched cell with a trace context so the remote
    // simulate span (flow id = parent_span_id) stitches under this
    // sweep's dispatch spans. Deliberately done on the uniques copy,
    // after dedup: trace ids are excluded from cell_key, and results
    // must not depend on whether telemetry is on.
    for (std::size_t k = 0; k < uniques.size(); ++k) {
      uniques[k].trace_id = 1;
      uniques[k].parent_span_id = static_cast<std::uint64_t>(k) + 1;
    }
  }

  run::ProgressCallback progress;
  if (progress_) {
    progress = [this,
                total = sweep.size()](const run::SweepProgress& inner) {
      run::SweepProgress p = inner;
      p.total = total;
      p.eta_seconds = p.done > 0 ? p.elapsed_seconds /
                                       static_cast<double>(p.done) *
                                       static_cast<double>(total - p.done)
                                 : 0.0;
      progress_(p);
    };
  }

  run::SigpipeGuard sigpipe;
  SweepRun sweep_run(config_, uniques, stats_, progress, tracer_,
                     telemetry_);
  std::vector<sim::SimResult> unique_results;
  try {
    unique_results = sweep_run.run();
  } catch (...) {
    // Any failure — budget exhaustion, deterministic kError, a throwing
    // progress callback — closes every connection before propagating; the
    // agents discard orphaned work on EOF.
    sweep_run.disconnect_all();
    throw;
  }

  std::vector<sim::SimResult> results;
  results.reserve(sweep.size());
  std::size_t done = uniques.size();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    results.push_back(unique_results[groups.rep[i]]);
    if (groups.unique_indices[groups.rep[i]] == i) continue;
    if (progress_) {
      run::SweepProgress p;
      p.done = ++done;
      p.total = sweep.size();
      p.elapsed_seconds = stats_.wall_seconds;
      p.eta_seconds = 0.0;
      progress_(p);
    }
  }
  stats_.tasks = sweep.size();
  stats_.simulated_cells = uniques.size();
  stats_.copied_cells = sweep.size() - uniques.size();
  return results;
}

}  // namespace esched::net
