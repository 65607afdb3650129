// The general OSDP recipe of Section 5.2, applicable to ANY two-phase DP
// histogram algorithm:
//
//   1. spend ε₁ = ρ·ε on an OSDP zero-bin detector over x_ns;
//   2. spend ε₂ = (1-ρ)·ε running the DP algorithm A on the full x;
//   3. post-process: zero the detected-empty bins, then reallocate each
//      learned group's removed mass to the group's surviving bins.
//
// By sequential composition (Theorem 3.3 + Lemma 3.1) the result satisfies
// (P, ε)-OSDP. DAWAz (mech/dawaz.h) is this recipe instantiated on DAWA; the
// paper leaves other instantiations as future work — AHPz and Hierarchicalz
// fall out of this module for free.
//
// Note on Algorithm 3 line 9: the paper prints rescale_ratio = |B| / |Z∩B|,
// which would blow up as zeros vanish; mass preservation requires dividing
// the group's mass over the *surviving* bins, i.e. |B| / (|B| - |Z∩B|).
// We implement the corrected ratio (and leave a group at zero when every
// bin in it was detected empty).

#ifndef OSDP_MECH_RECIPE_H_
#define OSDP_MECH_RECIPE_H_

#include <memory>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/dawaz.h"
#include "src/mech/histogram_mechanism.h"
#include "src/mech/two_phase.h"

namespace osdp {

/// Parameters of the recipe.
struct RecipeOptions {
  /// Fraction ρ of ε spent on the zero detector (paper: 0.1).
  double zero_budget_ratio = 0.1;
  /// Zero-bin detector (shared with DAWAz).
  DawazZeroDetector detector = DawazZeroDetector::kOsdpRR;
};

/// \brief Applies the recipe to `base` on (x, x_ns) at ε. (P, ε)-OSDP.
Result<Histogram> ApplyOsdpRecipe(const TwoPhaseMechanism& base,
                                  const Histogram& x, const Histogram& xns,
                                  double epsilon, const RecipeOptions& opts,
                                  Rng& rng);

/// \brief Wraps a two-phase DP algorithm as an OSDP HistogramMechanism named
/// "<base>z" (so MakeRecipeMechanism(MakeAhpTwoPhase()) is "AHPz").
std::unique_ptr<HistogramMechanism> MakeRecipeMechanism(
    std::unique_ptr<TwoPhaseMechanism> base, RecipeOptions opts = {});

/// \brief Wraps a two-phase algorithm as the ε-DP HistogramMechanism it is
/// on its own: runs it on x and drops the grouping. Named after the base.
std::unique_ptr<HistogramMechanism> MakeTwoPhaseDpMechanism(
    std::unique_ptr<TwoPhaseMechanism> base);

}  // namespace osdp

#endif  // OSDP_MECH_RECIPE_H_
