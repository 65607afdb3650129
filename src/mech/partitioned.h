// Partitioned release under extended OSDP (Appendix 10): runs an OSDP
// primitive independently on disjoint partitions of the dataset and
// certifies the combined guarantee via parallel composition (Theorem 10.2),
// converting back to standard OSDP with Theorem 10.1 (ε_eOSDP ⇒ 2ε_OSDP).
//
// The partition key must be *public* (e.g. calendar week, store id): under
// eOSDP's add/remove neighbors a record change touches exactly one
// partition, so the composed ε is max(ε_i) rather than Σε_i.

#ifndef OSDP_MECH_PARTITIONED_H_
#define OSDP_MECH_PARTITIONED_H_

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/data/table.h"
#include "src/hist/histogram.h"
#include "src/hist/histogram_query.h"
#include "src/mech/guarantee.h"
#include "src/policy/policy.h"

namespace osdp {

/// Result of a partitioned release.
struct PartitionedRelease {
  /// One histogram estimate per partition key value, in key order.
  std::vector<Histogram> partitions;
  /// The eOSDP guarantee of the whole release: max over partition ε's.
  PrivacyGuarantee eosdp;
  /// The implied standard-OSDP ε (Theorem 10.1: twice the eOSDP ε).
  double osdp_epsilon = 0.0;
};

/// Options for the partitioned release.
struct PartitionedReleaseOptions {
  /// Name of the int64 column holding the public partition key; values must
  /// lie in [0, num_partitions).
  std::string partition_column;
  size_t num_partitions = 0;
  /// ε spent in EACH partition (the composed eOSDP ε equals this).
  double epsilon_per_partition = 1.0;
};

/// \brief Answers `query` within every partition via OsdpLaplaceL1 on the
/// partition's non-sensitive rows. Satisfies (P, ε)-eOSDP with
/// ε = epsilon_per_partition, hence (P, 2ε)-OSDP. Returns the policy's
/// TypeCheck status if it does not type-check against the table.
Result<PartitionedRelease> PartitionedHistogramRelease(
    const Table& table, const Policy& policy, const HistogramQuery& query,
    const PartitionedReleaseOptions& opts, Rng& rng);

}  // namespace osdp

#endif  // OSDP_MECH_PARTITIONED_H_
