// A workload trace: an ordered list of jobs plus the machine it ran on.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "trace/job.hpp"
#include "util/types.hpp"

namespace esched::trace {

/// The trace order: submit time, ties broken by id.
bool submit_id_less(const Job& a, const Job& b);

/// A workload trace. Jobs are kept sorted by submit time (ties broken by
/// id); mutating accessors re-establish this ordering on demand.
class Trace {
 public:
  Trace() = default;

  /// Creates a trace for a machine of `system_nodes` nodes. Jobs may be
  /// appended afterwards; call finalize() (or let add_job keep order) before
  /// simulation.
  Trace(std::string name, NodeCount system_nodes);

  /// Machine size in nodes (N in the paper).
  NodeCount system_nodes() const { return system_nodes_; }
  /// Human-readable trace name (e.g. "ANL-BGP-like").
  const std::string& name() const { return name_; }

  /// Append a job, keeping (submit, id) order: an out-of-order job is
  /// inserted after every job with an equal key, exactly where a stable
  /// re-sort would put it. Expects the trace to be ordered already (call
  /// finalize() after editing mutable_jobs()). Throws if the job requests
  /// more nodes than the system has, has non-positive size/runtime, or a
  /// negative submit time.
  void add_job(Job job);

  /// Sorts jobs by (submit, id). Idempotent.
  void finalize();

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const Job& operator[](std::size_t i) const { return jobs_[i]; }
  std::span<const Job> jobs() const { return jobs_; }
  /// Mutable access for transforms; callers must finalize() afterwards if
  /// they change submit times.
  std::vector<Job>& mutable_jobs() { return jobs_; }

  /// Earliest submit time (0 for an empty trace).
  TimeSec first_submit() const;
  /// Latest submit time (0 for an empty trace).
  TimeSec last_submit() const;

  /// Throws esched::Error describing the first validation failure, if any:
  /// unsorted jobs, duplicate ids, out-of-range sizes, negative times.
  void validate() const;

 private:
  std::string name_ = "unnamed";
  NodeCount system_nodes_ = 0;
  std::vector<Job> jobs_;
};

}  // namespace esched::trace
