// perfbench-driver: one process per benchmark step, driven by run.py.
//
//   perfbench-driver cells     --workload W --seed S
//       the cell list (labels and canonical cell keys) and its digest
//   perfbench-driver run       --workload W --seed S [--coordinator H:P]
//                              [--counters]
//       one repetition on the workload's own execution plane, timed:
//       setup_s (process start to the plane's run() call: trace builds,
//       cell construction) and wall_s (run() to the last result), plus
//       the hash of every result's wire encoding
//   perfbench-driver reference --workload W --seed S [--no-share]
//       the serial in-process reference: a 1-thread SweepRunner
//       (--no-share: every cell simulated in full)
//   perfbench-driver trace     --workload W --seed S --trace-out F
//                              --scratch DIR
//       the per-layer replay (replay.hpp)
//
// Every step prints one JSON object as its last stdout line. A failure
// prints {"error": ...} and exits 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <future>
#include <iterator>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "run/proc.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "svc/client.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using esched::run::SweepStats;
using perfbench::Report;

// Taken during static initialization, before main: the workload's start.
const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Per-cell result hashes, on two threads like the sweeps themselves:
/// the check runs after the clock stops, but it still costs run time.
std::vector<std::uint64_t> hash_results(
    const std::vector<esched::sim::SimResult>& results) {
  std::vector<std::uint64_t> hashes(results.size());
  const auto hash_every_other = [&](std::size_t first) {
    for (std::size_t i = first; i < results.size(); i += 2) {
      hashes[i] = perfbench::result_hash(results[i]);
    }
  };
  std::future<void> odd =
      std::async(std::launch::async, hash_every_other, std::size_t{1});
  hash_every_other(0);
  odd.get();
  return hashes;
}

/// Print the report and exit without destroying the results: freeing
/// hundreds of megabytes costs run time and measures nothing.
[[noreturn]] void finish(const Report& out) {
  out.print();
  std::fflush(stdout);
  std::_Exit(0);
}

double mean_busy_fraction(const SweepStats& stats) {
  if (stats.worker_busy_seconds.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < stats.worker_busy_seconds.size(); ++i) {
    sum += stats.worker_busy_fraction(i);
  }
  return sum / static_cast<double>(stats.worker_busy_seconds.size());
}

void report_stats(Report& out, const std::string& prefix,
                  const SweepStats& stats) {
  out.count(prefix + "simulated_cells", stats.simulated_cells)
      .count(prefix + "copied_cells", stats.copied_cells)
      .count(prefix + "rebilled_cells", stats.rebilled_cells)
      .count(prefix + "threads", stats.threads)
      .num(prefix + "busy_frac", mean_busy_fraction(stats));
}

struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// CPU time and peak RSS of this process plus its reaped children.
Usage resource_usage() {
  Usage usage;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    usage.cpu_s +=
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    usage.peak_rss_mb = std::max(usage.peak_rss_mb,
                                 static_cast<double>(ru.ru_maxrss) / 1024.0);
  }
  return usage;
}

[[noreturn]] void run_step(const esched::CliArgs& args,
                           const perfbench::Workload& w) {
  if (args.has("counters")) esched::obs::set_counters_enabled(true);
  const std::vector<esched::run::SimJob> jobs = perfbench::build_jobs(w);
  Report out;
  std::vector<esched::sim::SimResult> results;
  Clock::time_point dispatch{};
  switch (w.plane) {
    case perfbench::Plane::kInProcess: {
      esched::run::SweepRunner runner(perfbench::kParallelism);
      dispatch = Clock::now();
      results = runner.run(jobs);
      report_stats(out, "sweep.", runner.last_stats());
      break;
    }
    case perfbench::Plane::kProc: {
      esched::run::SubprocessPoolConfig config;
      config.workers = perfbench::kParallelism;
      esched::run::SubprocessPool pool(config);
      dispatch = Clock::now();
      results = pool.run(w.cells);
      report_stats(out, "sweep.", pool.last_stats());
      break;
    }
    case perfbench::Plane::kFleet: {
      // The grid goes in twice under two sweep ids, so the second
      // submission is served from the journal the first one wrote.
      esched::svc::CoordinatorClientConfig config;
      config.coordinator =
          esched::net::parse_host_port(args.get_or("coordinator", ""));
      config.sweep_id = "perfbench-cold";
      esched::svc::CoordinatorClient cold(config);
      std::vector<double> delivered_at;
      cold.set_progress([&](const esched::run::SweepProgress& p) {
        delivered_at.push_back(p.elapsed_seconds);
      });
      config.sweep_id = "perfbench-warm";
      esched::svc::CoordinatorClient warm(config);
      dispatch = Clock::now();
      results = cold.run(w.cells);
      const Clock::time_point warm_start = Clock::now();
      std::vector<esched::sim::SimResult> again = warm.run(w.cells);
      const double warm_s = seconds_between(warm_start, Clock::now());
      std::move(again.begin(), again.end(), std::back_inserter(results));
      std::vector<double> gaps;
      double previous = 0.0;
      for (const double at : delivered_at) {
        gaps.push_back(at - previous);
        previous = at;
      }
      report_stats(out, "sweep.", cold.last_stats());
      out.count("journal_hits", warm.last_stats().copied_cells)
          .num("warm_pass_s", warm_s)
          .num("delivery_gap_p50_s", perfbench::quantile(gaps, 0.5));
      break;
    }
  }
  const Clock::time_point done = Clock::now();
  // This process and the workers it reaped, up to the last result: the
  // hashing below is the benchmark's check, not the program's work.
  const Usage usage = resource_usage();
  out.num("cpu_s", usage.cpu_s).num("peak_rss_mb", usage.peak_rss_mb);
  if (args.has("counters")) {
    out.count("pool_retries", esched::obs::Registry::global()
                                  .counter("pool.retries")
                                  .value());
  }
  out.num("setup_s", seconds_between(g_process_start, dispatch))
      .num("wall_s", seconds_between(dispatch, done))
      .hashes("hashes", hash_results(results));
  finish(out);
}

[[noreturn]] void reference_step(const esched::CliArgs& args,
                                 const perfbench::Workload& w) {
  esched::run::SweepRunner runner(1);
  runner.set_prefix_sharing(!args.has("no-share"));
  const std::vector<std::uint64_t> hashes =
      hash_results(runner.run(perfbench::build_jobs(w)));
  Report out;
  out.hashes("hashes", hashes)
      .str("digest", Report::hex(perfbench::digest(hashes)));
  finish(out);
}

int cells_step(const perfbench::Workload& w) {
  std::string labels = "[";
  std::vector<std::uint64_t> key_hashes;
  for (const esched::run::JobSpec& spec : w.cells) {
    const std::string key = esched::run::cell_key(spec);
    key_hashes.push_back(perfbench::fnv1a(
        reinterpret_cast<const std::uint8_t*>(key.data()), key.size()));
    if (labels.size() > 1) labels += ',';
    labels += '"';
    labels += spec.label;
    labels += '"';
  }
  Report out;
  out.count("cells", w.cells.size())
      .count("months", w.months)
      .raw("labels", labels + "]")
      .str("digest", Report::hex(perfbench::digest(key_hashes)));
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const esched::CliArgs args = esched::CliArgs::parse(argc, argv);
    ESCHED_REQUIRE(!args.positional().empty(),
                   "usage: perfbench-driver cells|run|reference|trace "
                   "--workload W --seed S");
    const std::string step = args.positional().front();
    const perfbench::Workload w = perfbench::make_workload(
        args.get_or("workload", ""),
        static_cast<std::uint64_t>(args.get_int_or("seed", 1)));
    if (step == "cells") return cells_step(w);
    if (step == "run") run_step(args, w);
    if (step == "reference") reference_step(args, w);
    if (step == "trace") {
      finish(perfbench::replay_layers(w, args.get_or("trace-out", ""),
                                      args.get_or("scratch", "")));
    }
    throw esched::Error("unknown step \"" + step + "\"");
  } catch (const std::exception& e) {
    Report out;
    out.str("error", e.what());
    out.print();
    return 1;
  }
}
