#include "src/mech/laplace.h"

#include "src/accounting/budget.h"
#include "src/common/distributions.h"

namespace osdp {

double LaplaceMechanismScalar(double value, double epsilon,
                              const LaplaceOptions& opts, Rng& rng) {
  return value + SampleLaplace(rng, opts.sensitivity / epsilon);
}

Result<Histogram> LaplaceMechanism(const Histogram& x, double epsilon,
                                   const LaplaceOptions& opts, Rng& rng) {
  if (!IsValidEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (opts.sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  const double scale = opts.sensitivity / epsilon;
  Histogram out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] + SampleLaplace(rng, scale);
  }
  return out;
}

Result<Histogram> LaplaceMechanism(const Histogram& x, double epsilon,
                                   Rng& rng) {
  return LaplaceMechanism(x, epsilon, LaplaceOptions{}, rng);
}

PrivacyGuarantee LaplaceGuarantee(double epsilon) {
  PrivacyGuarantee g;
  g.model = PrivacyModel::kDP;
  g.epsilon = epsilon;
  g.exclusion_attack_phi = epsilon;  // Theorem 3.1 applies to all DP mechanisms
  return g;
}

double LaplaceExpectedL1Error(size_t bins, double epsilon, double sensitivity) {
  return static_cast<double>(bins) * sensitivity / epsilon;
}

}  // namespace osdp
