#include "src/mech/dawaz.h"

#include <vector>

#include "src/accounting/budget.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"

namespace osdp {

Result<Histogram> Dawaz(const Histogram& x, const Histogram& xns,
                        double epsilon, const DawazOptions& opts, Rng& rng) {
  if (!IsValidEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (opts.zero_budget_ratio <= 0.0 || opts.zero_budget_ratio >= 1.0) {
    return Status::InvalidArgument("zero_budget_ratio must be in (0,1)");
  }
  if (x.size() != xns.size()) {
    return Status::InvalidArgument("x and xns must have equal size");
  }
  OSDP_RETURN_IF_ERROR(x.ValidateNonNegative());
  OSDP_RETURN_IF_ERROR(xns.ValidateNonNegative());
  if (!xns.DominatedBy(x)) {
    return Status::InvalidArgument("xns must be dominated by x per bin");
  }

  const double eps1 = opts.zero_budget_ratio * epsilon;
  const double eps2 = epsilon - eps1;

  // Step 1: OSDP estimate of x_ns; its zero bins become the zero set Z.
  Histogram detector_out(0);
  switch (opts.detector) {
    case DawazZeroDetector::kOsdpRR: {
      OSDP_ASSIGN_OR_RETURN(detector_out, OsdpRRHistogram(xns, eps1, rng));
      break;
    }
    case DawazZeroDetector::kOsdpLaplaceL1: {
      OSDP_ASSIGN_OR_RETURN(detector_out, OsdpLaplaceL1(xns, eps1, rng));
      break;
    }
  }
  std::vector<bool> zero(x.size());
  for (size_t i = 0; i < x.size(); ++i) zero[i] = detector_out[i] <= 0.0;

  // Step 2: DAWA on the full histogram with the remaining budget.
  OSDP_ASSIGN_OR_RETURN(DawaResult dawa, Dawa(x, eps2, opts.dawa, rng));

  // Step 3 (post-processing): zero out Z; within each bucket, reallocate the
  // removed mass to the surviving bins so the bucket total is preserved.
  Histogram out = dawa.estimate;
  for (size_t i = 0; i < out.size(); ++i) {
    if (zero[i]) out[i] = 0.0;
  }
  for (const DawaBucket& b : dawa.partition) {
    size_t zeroed = 0;
    for (size_t i = b.begin; i < b.end; ++i) zeroed += zero[i] ? 1 : 0;
    if (zeroed == 0) continue;
    const size_t survivors = b.size() - zeroed;
    if (survivors == 0) continue;  // whole bucket declared empty
    const double ratio =
        static_cast<double>(b.size()) / static_cast<double>(survivors);
    for (size_t i = b.begin; i < b.end; ++i) {
      if (!zero[i]) out[i] *= ratio;
    }
  }
  return out;
}

Result<Histogram> Dawaz(const Histogram& x, const Histogram& xns,
                        double epsilon, Rng& rng) {
  return Dawaz(x, xns, epsilon, DawazOptions{}, rng);
}

PrivacyGuarantee DawazGuarantee(double epsilon, const std::string& policy_name) {
  PrivacyGuarantee g;
  g.model = PrivacyModel::kOSDP;
  g.epsilon = epsilon;
  g.policy_name = policy_name;
  g.exclusion_attack_phi = epsilon;
  return g;
}

}  // namespace osdp
