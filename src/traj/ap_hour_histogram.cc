#include "src/traj/ap_hour_histogram.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace osdp {

Result<Histogram2D> ApHourDistinctUsers(const std::vector<Trajectory>& trajs,
                                        const ApHourOptions& opts) {
  if (opts.num_aps <= 0 || opts.hours <= 0 || opts.slots_per_day <= 0) {
    return Status::InvalidArgument("dimensions must be positive");
  }
  if (opts.slots_per_day % opts.hours != 0) {
    return Status::InvalidArgument("slots_per_day must be a multiple of hours");
  }
  const int slots_per_hour = opts.slots_per_day / opts.hours;

  // (cell, user-or-user-day) pairs, then dedupe.
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (const Trajectory& traj : trajs) {
    if (opts.day >= 0 && traj.day != opts.day) continue;
    const uint64_t who =
        opts.day >= 0
            ? static_cast<uint64_t>(traj.user_id)
            : (static_cast<uint64_t>(traj.user_id) << 32) |
                  static_cast<uint64_t>(static_cast<uint32_t>(traj.day));
    for (size_t t = 0; t < traj.slots.size(); ++t) {
      const int16_t ap = traj.slots[t];
      // An AP id outside [0, num_aps) falls in no cell, like kAbsent: the
      // outcome never depends on whether some slot holds such a value.
      if (ap < 0 || ap >= opts.num_aps) continue;
      const auto hour =
          static_cast<uint64_t>(t / static_cast<size_t>(slots_per_hour));
      if (hour >= static_cast<uint64_t>(opts.hours)) continue;
      const uint64_t cell =
          static_cast<uint64_t>(ap) * static_cast<uint64_t>(opts.hours) + hour;
      pairs.emplace_back(cell, who);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  Histogram2D out(static_cast<size_t>(opts.num_aps),
                  static_cast<size_t>(opts.hours));
  for (const auto& [cell, _] : pairs) {
    out.flat()[static_cast<size_t>(cell)] += 1.0;
  }
  return out;
}

}  // namespace osdp
