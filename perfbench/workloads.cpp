#include "workloads.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include "core/policy.hpp"
#include "meta/spec.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

using esched::run::JobSpec;
using esched::run::PricingSpec;
using esched::run::TraceSpec;

// Sizes. A repetition takes a few seconds on a 4-thread host with
// kParallelism workers, so a run holds several to take the median of.
// Every workload spreads its work over several seeded traces: the
// generator draws each trace's arrival rate from its seed, so the work
// in one trace varies by about 10% from seed to seed, and averaging
// over traces keeps the benchmark's seed-to-seed spread small.
constexpr std::size_t kEngineTraces = 32;  // x 3 policies
constexpr std::size_t kEngineMonths = 5;   // the paper's trace length
constexpr std::size_t kTariffTraces = 8;   // x 3 policies x 20 ratios
constexpr std::size_t kTariffMonths = 3;
constexpr std::size_t kTariffRatios = 20;
constexpr std::size_t kMetaTraces = 8;     // x the 24-cell grid
constexpr std::size_t kMetaMonths = 1;     // carving is quadratic today
constexpr std::size_t kFleetTraces = 32;   // x 3 policies, per pass
constexpr std::size_t kFleetMonths = 2;

const std::vector<std::string> kPolicies = {"fcfs", "greedy", "knapsack"};

/// splitmix64: decorrelates the trace seeds derived from one workload
/// seed. Never 0, which TraceSpec reads as "the canonical seed".
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x100000001b3ull + index + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

TraceSpec synthetic(const std::string& source, std::size_t months,
                    std::uint64_t seed) {
  TraceSpec spec;
  spec.source = source;
  spec.months = months;
  spec.seed = seed;
  // The bench drivers reuse the trace seed for the power draw.
  spec.power_seed = seed;
  return spec;
}

JobSpec cell(const TraceSpec& trace, const PricingSpec& pricing,
             const std::string& policy, std::string label) {
  JobSpec spec;
  spec.trace = trace;
  spec.pricing = pricing;
  spec.policy.name = policy;
  spec.label = std::move(label);
  return spec;
}

/// Distinct seeded traces, sdsc-blue and anl-bgp alternating, crossed
/// with the paper's three policies under its default tariff.
std::vector<JobSpec> seeded_grid(std::uint64_t seed, std::size_t traces,
                                 std::size_t months) {
  std::vector<JobSpec> cells;
  for (std::size_t t = 0; t < traces; ++t) {
    const TraceSpec trace =
        synthetic(t % 2 == 0 ? "sdsc-blue" : "anl-bgp", months,
                  derive_seed(seed, t));
    for (const std::string& policy : kPolicies) {
      cells.push_back(cell(trace, PricingSpec{}, policy,
                           trace.source + "#" + std::to_string(t) + "/" +
                               policy));
    }
  }
  return cells;
}

/// Per trace: 3 policies x kTariffRatios price ratios of the paper's
/// tariff. The ratios share one period structure, so each policy
/// simulates once per trace and the other ratios are re-billed.
std::vector<JobSpec> tariff_grid(std::uint64_t seed) {
  std::vector<JobSpec> cells;
  for (std::size_t t = 0; t < kTariffTraces; ++t) {
    const TraceSpec trace =
        synthetic("sdsc-blue", kTariffMonths, derive_seed(seed, t));
    for (const std::string& policy : kPolicies) {
      for (std::size_t r = 0; r < kTariffRatios; ++r) {
        PricingSpec pricing;
        pricing.ratio = 1.25 + 0.25 * static_cast<double>(r);
        cells.push_back(cell(trace, pricing, policy,
                             std::string("#") + std::to_string(t) + "/" +
                                 policy +
                                 "/ratio" + std::to_string(r)));
      }
    }
  }
  return cells;
}

/// Per trace, the fig_multicenter_savings grid: 2 and 4 centers x every
/// router, knapsack sites, 600 s move penalty, paper tariffs
/// phase-shifted by 24h/N per center.
std::vector<JobSpec> multicenter_grid(std::uint64_t seed) {
  static const char* kNames[] = {"us-west", "us-east", "eu", "asia"};
  std::vector<JobSpec> cells;
  for (std::size_t t = 0; t < kMetaTraces; ++t) {
    const TraceSpec trace =
        synthetic("sdsc-blue", kMetaMonths, derive_seed(seed, t));
    for (const std::size_t n : {std::size_t{2}, std::size_t{4}}) {
      for (const std::string& router : esched::meta::known_router_names()) {
        auto scenario = std::make_shared<esched::meta::MetaSpec>();
        scenario->router = router;
        scenario->move_penalty = 600;
        for (std::size_t c = 0; c < n; ++c) {
          esched::meta::CenterSpec center;
          center.name = kNames[c];
          center.pricing.tz_offset_min =
              static_cast<std::int64_t>(c * (24 * 60 / n));
          center.policy.name = "knapsack";
          scenario->centers.push_back(std::move(center));
        }
        esched::meta::validate(*scenario);
        for (std::uint32_t c = 0; c < n; ++c) {
          const esched::meta::CenterSpec& center = scenario->centers[c];
          JobSpec spec = cell(trace, center.pricing, center.policy.name,
                              std::string("#") + std::to_string(t) + "/N" +
                                  std::to_string(n) + "/" + router + "/" +
                                  center.name);
          spec.meta = scenario;
          spec.meta_center = c;
          cells.push_back(std::move(spec));
        }
      }
    }
  }
  return cells;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "engine-seeds") {
    w.months = kEngineMonths;
    w.cells = seeded_grid(seed, kEngineTraces, kEngineMonths);
  } else if (name == "tariff-grid") {
    w.months = kTariffMonths;
    w.cells = tariff_grid(seed);
  } else if (name == "multicenter-proc") {
    w.plane = Plane::kProc;
    w.months = kMetaMonths;
    w.cells = multicenter_grid(seed);
  } else if (name == "fleet-journal") {
    w.plane = Plane::kFleet;
    w.months = kFleetMonths;
    w.cells = seeded_grid(seed, kFleetTraces, kFleetMonths);
  } else {
    throw esched::Error("unknown workload \"" + name + "\"");
  }
  return w;
}

std::vector<esched::run::SimJob> build_jobs(const Workload& workload,
                                           const TraceFactory& build_trace) {
  // Workloads hold a handful of distinct traces and tariffs, so a linear
  // lookup by spec equality is enough.
  std::vector<std::pair<TraceSpec,
                        std::shared_ptr<const esched::trace::Trace>>>
      traces;
  std::vector<std::pair<PricingSpec,
                        std::shared_ptr<const esched::power::PricingModel>>>
      tariffs;
  const auto find = [](auto& built, const auto& spec) {
    for (auto& [key, value] : built) {
      if (key == spec) return value;
    }
    return decltype(built.front().second){};
  };
  std::vector<esched::run::SimJob> jobs;
  jobs.reserve(workload.cells.size());
  for (const JobSpec& spec : workload.cells) {
    auto trace = find(traces, spec.trace);
    if (trace == nullptr) {
      trace = std::make_shared<const esched::trace::Trace>(
          build_trace(spec.trace));
      traces.emplace_back(spec.trace, trace);
    }
    auto tariff = find(tariffs, spec.pricing);
    if (tariff == nullptr) {
      tariff = esched::run::build_pricing(spec.pricing);
      tariffs.emplace_back(spec.pricing, tariff);
    }

    esched::run::SimJob job;
    job.trace = trace;
    job.pricing = tariff;
    const std::string policy = spec.policy.name;
    job.make_policy = [policy] {
      return esched::core::make_policy_by_name(policy);
    };
    job.config = spec.config;
    job.label = spec.label;
    job.spec = std::make_shared<const JobSpec>(spec);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t hash) {
  // FNV-1a over 64-bit words (tail bytes one by one), rotated so high
  // bits reach the low ones: several times faster than the byte-wise
  // form on multi-megabyte results, and still a bijection per step, so
  // any single changed word changes the hash.
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, sizeof word);
    hash = std::rotl((hash ^ word) * 0x100000001b3ull, 31);
  }
  for (; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t result_hash(const esched::sim::SimResult& result) {
  const std::vector<std::uint8_t> bytes =
      esched::run::wire::encode_result(result);
  return fnv1a(bytes.data(), bytes.size());
}

std::uint64_t digest(const std::vector<std::uint64_t>& cell_hashes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint64_t h : cell_hashes) {
    std::uint8_t bytes[8];
    for (int b = 0; b < 8; ++b) {
      bytes[b] = static_cast<std::uint8_t>(h >> (8 * b));
    }
    hash = fnv1a(bytes, sizeof bytes, hash);
  }
  return hash;
}

}  // namespace perfbench
