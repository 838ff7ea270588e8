// The benchmark's four workloads as declarative cell lists.
//
// A workload is a function of its seed alone: make_workload() derives
// every trace seed from it, so the same seed always yields the same
// cells (and, through the byte-identity contract, the same result
// bytes), while the program under test only ever sees the generated
// JobSpecs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "run/spec.hpp"
#include "run/sweep.hpp"

namespace perfbench {

/// Where the cells of a workload execute.
enum class Plane {
  kInProcess,  ///< run::SweepRunner threads
  kProc,       ///< run::SubprocessPool of esched-worker processes
  kFleet,      ///< svc::CoordinatorClient -> esched-coordinator -> agentd
};

/// Sweep threads / worker processes / agent slots every workload uses.
inline constexpr std::size_t kParallelism = 2;

struct Workload {
  std::string name;
  Plane plane = Plane::kInProcess;
  std::size_t months = 0;  ///< length of each trace, 30-day months
  std::vector<esched::run::JobSpec> cells;  ///< submission order
};

/// The cells of `name` for `seed`. Builds no trace. Throws
/// esched::Error for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

using TraceFactory =
    std::function<esched::trace::Trace(const esched::run::TraceSpec&)>;

/// The runnable twin of a workload, as a bench driver assembles it
/// before dispatch: every distinct trace (made by `build_trace`) and
/// tariff built once and shared, one policy factory per cell, each cell
/// carrying its spec.
std::vector<esched::run::SimJob> build_jobs(
    const Workload& workload,
    const TraceFactory& build_trace = esched::run::build_trace);

/// 64-bit word-wise FNV-1a variant over `size` bytes, continuing from
/// `hash`.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/// Per-cell hash of the wire encoding (run::wire::encode_result) of one
/// result: what the byte-identity contract compares across planes.
std::uint64_t result_hash(const esched::sim::SimResult& result);

/// The workload digest: FNV-1a over the per-cell hashes, in order.
std::uint64_t digest(const std::vector<std::uint64_t>& cell_hashes);

}  // namespace perfbench
