// The TIPPERS 2-D histogram of Sections 6.2 / 6.3.3.1: distinct users per
// (access point, hour) cell.

#ifndef OSDP_TRAJ_AP_HOUR_HISTOGRAM_H_
#define OSDP_TRAJ_AP_HOUR_HISTOGRAM_H_

#include <vector>

#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/traj/trajectory.h"

namespace osdp {

/// Options for the AP x hour histogram.
struct ApHourOptions {
  int num_aps = 64;
  int slots_per_day = 144;  ///< must be a multiple of `hours`
  int hours = 24;
  /// Restrict to a single day (the paper uses one day); -1 counts distinct
  /// user-days across the whole dataset, which gives the same shape with
  /// more statistical mass at small simulation scales.
  int day = -1;
};

/// \brief Counts distinct users (or user-days when opts.day == -1) connected
/// to each AP during each hour. Rows = APs, cols = hours. Slots holding an
/// AP id outside [0, num_aps) are dropped: they fall in no cell.
Result<Histogram2D> ApHourDistinctUsers(const std::vector<Trajectory>& trajs,
                                        const ApHourOptions& opts);

}  // namespace osdp

#endif  // OSDP_TRAJ_AP_HOUR_HISTOGRAM_H_
