#include "src/mech/dawaz.h"

#include "src/mech/recipe.h"
#include "src/mech/two_phase.h"

namespace osdp {

Result<Histogram> Dawaz(const Histogram& x, const Histogram& xns,
                        double epsilon, const DawazOptions& opts, Rng& rng) {
  return ApplyOsdpRecipe(*MakeDawaTwoPhase(opts.dawa), x, xns, epsilon,
                         RecipeOptions{opts.zero_budget_ratio, opts.detector},
                         rng);
}

Result<Histogram> Dawaz(const Histogram& x, const Histogram& xns,
                        double epsilon, Rng& rng) {
  return Dawaz(x, xns, epsilon, DawazOptions{}, rng);
}

}  // namespace osdp
