// OsdpEngine: a stateless mechanism dispatcher over a policy-guarded dataset —
// the generation-0 snapshot, the policy, and the mechanism options. It holds
// no budget, ledger or noise stream: every release of the paper's "online
// setting" (Section 7) is served, charged and recorded by QueryService
// (src/runtime/query_service.h), the dataset's single ε authority, which
// enforces the budget and tracks the composed (P, ε)-OSDP guarantee
// (Theorem 3.3).

#ifndef OSDP_CORE_ENGINE_H_
#define OSDP_CORE_ENGINE_H_

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/data/snapshot.h"
#include "src/hist/histogram.h"
#include "src/mech/dawa.h"
#include "src/mech/dawaz.h"
#include "src/mech/hierarchical.h"
#include "src/policy/policy.h"

namespace osdp {

/// Which algorithm answers a histogram query through the engine.
enum class EngineMechanism {
  kLaplace = 0,        ///< ε-DP Laplace on the full histogram
  kOsdpLaplace = 1,    ///< one-sided Laplace on x_ns (Definition 5.2)
  kOsdpLaplaceL1 = 2,  ///< Algorithm 2
  kDawa = 3,           ///< ε-DP DAWA on the full histogram
  kDawaz = 4,          ///< Algorithm 3
  kHierarchical = 5,   ///< ε-DP hierarchical release (Hay et al.)
};

/// \brief A policy-guarded dataset plus the mechanism configuration that
/// answers histogram queries over it. Immutable after Create apart from
/// set_mech_pool; const methods are thread-compatible.
class OsdpEngine {
 public:
  /// Engine configuration.
  struct Options {
    /// Lifetime privacy budget of the dataset, enforced by the QueryService
    /// that serves it (the service-wide budget).
    double total_epsilon = 1.0;
    DawaOptions dawa;                  ///< options for DAWA-based mechanisms
    DawazOptions dawaz;                ///< options for DAWAz
    HierarchicalOptions hierarchical;  ///< options for kHierarchical
  };

  /// Takes ownership of the data; `policy` marks sensitive records.
  /// InvalidArgument for an empty dataset or a non-positive or non-finite
  /// total_epsilon; the policy's TypeCheck status if it does not type-check
  /// against the data's schema.
  static Result<OsdpEngine> Create(Table data, Policy policy, Options options);

  /// \brief Runs `mechanism` over precomputed histograms with the caller's
  /// Rng — the pure dispatch QueryService releases histograms through, and
  /// that serial replays call with the query's QuerySeed stream. DP
  /// mechanisms consume `x`, OSDP mechanisms `xns` (DAWAz both). Const and
  /// thread-compatible: concurrent calls are safe as long as each passes a
  /// distinct Rng.
  Result<Histogram> RunMechanism(const Histogram& x, const Histogram& xns,
                                 double epsilon, EngineMechanism mechanism,
                                 Rng& rng) const;

  /// \brief The engine's dataset snapshot: table + cached policy mask +
  /// generation id, immutable and shareable. Create() cuts generation 0
  /// from the table it was given; QueryService seeds its snapshot store
  /// from this and publishes later generations itself.
  const SnapshotPtr& snapshot() const { return snapshot_; }

  /// The engine configuration.
  const Options& options() const { return options_; }

  /// \brief Routes the DAWA interval-cost engine build (also inside DAWAz)
  /// onto `pool` (nullptr = serial), the one mechanism stage whose sharding
  /// shows a measured win. Answers stay bit-identical at any thread count:
  /// noise sampling never moves off the caller's Rng, so the QuerySeed
  /// replay contract holds and a serial replay engine reproduces pooled
  /// answers exactly.
  void set_mech_pool(ThreadPool* pool) {
    options_.dawa.pool = pool;
    options_.dawaz.dawa.pool = pool;
  }

  /// The active policy.
  const Policy& policy() const { return policy_; }

 private:
  OsdpEngine(Table data, Policy policy, Options options);

  SnapshotPtr snapshot_;  // generation-0 view: table + cached policy mask
  Policy policy_;
  Options options_;
};

/// Name of an EngineMechanism ("Laplace", "DAWAz", ...).
const char* EngineMechanismToString(EngineMechanism m);

}  // namespace osdp

#endif  // OSDP_CORE_ENGINE_H_
