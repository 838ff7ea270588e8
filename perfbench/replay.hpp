// The per-layer replay behind `run.py --trace 1`.
//
// A workload's cells are replayed in this process, on one thread, in
// the call order of the workload's production plane, with every layer
// called through its public function:
//
//   in-process  trace builds, the sharing plan (run::share_key /
//               run::cell_key), leaders simulated (sim::Simulation,
//               recording power signals), then followers copied or
//               re-billed (sim::rebill), ascending;
//   proc        trace build, run::group_cells, then per cell the
//               supervisor/worker round trip: wire::encode_job,
//               decode_job, build_trace, meta::route_jobs,
//               meta::build_center_trace, sim::simulate,
//               wire::encode_result, decode_result;
//   fleet       trace builds, wire::encode_submit / decode_submit,
//               per cell encode_job + run::cell_key, then the cold pass
//               (decode_job, build_trace, sim::simulate, encode_result,
//               svc::Journal::append into a scratch journal,
//               decode_result) and the warm pass (the journal's bytes
//               decoded again).
//
// The replay runs twice. The untraced pass reads no clock inside the
// loop and gives the baseline wall time. The traced pass records a span
// per layer call (nested under a span per cell, under one root span),
// times SchedulingPolicy::prioritize through a forwarding wrapper (one
// aggregate span per cell, since a call lasts well under a
// microsecond), and turns the obs Registry counters on. Spans stay in
// memory during the pass and go to the obs::Tracer trace file after it.
// Every span's self time (its duration minus its children) is credited
// to its layer; the root and cell spans' self time is the residual, so
// the layer self times plus the residual sum to the traced wall time
// exactly.
#pragma once

#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Replay `workload` untraced, then traced into the Perfetto trace file
/// `trace_out` (journals go under `scratch_dir`). Returns the per-layer
/// metrics plus the replay's result hashes, which must equal the
/// production run's.
Report replay_layers(const Workload& workload, const std::string& trace_out,
                     const std::string& scratch_dir);

}  // namespace perfbench
