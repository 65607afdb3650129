// Shared scaffolding for the experiment binaries: canonical simulation
// configs, policy grids, and environment-variable knobs so every bench
// regenerates its paper artefact with consistent inputs.

#ifndef OSDP_BENCH_BENCH_COMMON_H_
#define OSDP_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/traj/ap_policy.h"
#include "src/traj/building_sim.h"

namespace osdp {
namespace bench {

/// \brief Repetition count, overridable via OSDP_BENCH_REPS. Strict parse
/// (src/common/env.h): unset, unparsable ("7junk", "garbage"), or
/// non-positive values all yield `fallback` — a typo must not silently run a
/// different experiment.
inline int Reps(int fallback) {
  long long v = 0;
  if (!ParseInt64Strict(std::getenv("OSDP_BENCH_REPS"), &v)) return fallback;
  return (v > 0 && v <= INT_MAX) ? static_cast<int>(v) : fallback;
}

/// \brief The thread grid of a scaling bench, read from OSDP_BENCH_THREADS:
/// comma-separated counts of executing threads (pool workers plus the
/// caller, which drains chunks too), each >= 1. Unset or malformed values
/// yield `fallback` whole, by the same strict contract as Reps.
inline std::vector<long long> ParseThreadGrid(
    std::vector<long long> fallback = {1, 2, 4}) {
  const char* env = std::getenv("OSDP_BENCH_THREADS");
  if (env == nullptr) return fallback;
  std::vector<long long> out;
  const std::string s = env;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? s.npos : comma - pos);
    long long v = 0;
    if (!ParseInt64Strict(tok.c_str(), &v) || v < 1) return fallback;
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out.empty() ? fallback : out;
}

/// \brief A non-negative double knob (overhead gates, ratios) read from env
/// var `name` with the same strict-or-fallback contract as Reps.
inline double EnvGate(const char* name, double fallback) {
  double v = 0.0;
  if (!ParseDoubleStrict(std::getenv(name), &v)) return fallback;
  return v >= 0.0 ? v : fallback;
}

/// \brief Nearest-rank percentile of `vals` (copied and sorted internally):
/// the smallest element with rank >= ceil(p/100 · N). p=50 is the median of
/// odd-length inputs and the lower-middle of even ones; 0 on empty input.
/// The house latency-reporting idiom (bench_percentile in the liric
/// exemplar): exact, deterministic, no interpolation — a reported p99 is an
/// actual observed sample.
inline double Percentile(std::vector<double> vals, double p) {
  if (vals.empty()) return 0.0;
  std::sort(vals.begin(), vals.end());
  const double exact = p / 100.0 * static_cast<double>(vals.size());
  size_t rank = static_cast<size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;  // ceil
  if (rank < 1) rank = 1;
  if (rank > vals.size()) rank = vals.size();
  return vals[rank - 1];
}

/// Median via Percentile(·, 50).
inline double Median(std::vector<double> vals) {
  return Percentile(std::move(vals), 50.0);
}

/// The standard latency trio + count, computed in one pass over a sample
/// vector. Feed it per-query durations (e.g. ServiceAnswer's
/// server_duration_micros) and report/record the fields directly.
struct LatencyStats {
  size_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

inline LatencyStats SummarizeLatencies(std::vector<double> vals) {
  LatencyStats s;
  s.count = vals.size();
  if (vals.empty()) return s;
  std::sort(vals.begin(), vals.end());
  auto at = [&](double p) {
    const double exact = p / 100.0 * static_cast<double>(vals.size());
    size_t rank = static_cast<size_t>(exact);
    if (static_cast<double>(rank) < exact) ++rank;
    if (rank < 1) rank = 1;
    if (rank > vals.size()) rank = vals.size();
    return vals[rank - 1];
  };
  s.p50 = at(50.0);
  s.p95 = at(95.0);
  s.p99 = at(99.0);
  s.max = vals.back();
  return s;
}

/// The canonical scaled-down TIPPERS simulation shared by the trajectory
/// benches (paper: 585K trajectories / 16K users over 9 months — we default
/// to a laptop-scale slice; OSDP_BENCH_USERS / OSDP_BENCH_DAYS rescale it).
inline const TrajectoryDataset& Tippers() {
  static const TrajectoryDataset kSim = [] {
    BuildingSimConfig cfg;
    const char* users = std::getenv("OSDP_BENCH_USERS");
    const char* days = std::getenv("OSDP_BENCH_DAYS");
    cfg.num_users = users ? std::atoi(users) : 600;
    cfg.num_days = days ? std::atoi(days) : 40;
    // Mirror the paper's class imbalance: residents are a small share of the
    // population (381 of 16K users; ~8% of daily trajectories).
    cfg.resident_fraction = 0.12;
    cfg.resident_attendance = 0.6;
    cfg.visitor_attendance = 0.25;
    cfg.seed = 20171216;  // arXiv submission date of the paper
    return *SimulateBuilding(cfg);
  }();
  return kSim;
}

/// The paper's policy labels P99...P1 with their target fractions.
struct PolicyPoint {
  const char* label;
  double target;
};

inline const std::vector<PolicyPoint>& PolicyGrid() {
  static const std::vector<PolicyPoint> kGrid = {
      {"P99", 0.99}, {"P90", 0.90}, {"P75", 0.75}, {"P50", 0.50},
      {"P25", 0.25}, {"P10", 0.10}, {"P1", 0.01}};
  return kGrid;
}

/// Calibrated AP policies for the shared simulation, built once.
inline const std::vector<ApSetPolicy>& TippersPolicies() {
  static const std::vector<ApSetPolicy> kPolicies = [] {
    std::vector<ApSetPolicy> out;
    for (const PolicyPoint& p : PolicyGrid()) {
      out.push_back(*CalibrateApPolicy(Tippers().trajectories,
                                       Tippers().config.num_aps, p.target));
    }
    return out;
  }();
  return kPolicies;
}

}  // namespace bench
}  // namespace osdp

#endif  // OSDP_BENCH_BENCH_COMMON_H_
