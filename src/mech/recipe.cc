#include "src/mech/recipe.h"

#include <utility>
#include <vector>

#include "src/accounting/budget.h"
#include "src/mech/ahp.h"
#include "src/mech/hierarchical.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"

namespace osdp {

Result<Histogram> ApplyOsdpRecipe(const TwoPhaseMechanism& base,
                                  const Histogram& x, const Histogram& xns,
                                  double epsilon, const RecipeOptions& opts,
                                  Rng& rng) {
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

  // Step 1: OSDP zero detection on x_ns.
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

  // Step 2: the DP algorithm on the full histogram.
  OSDP_ASSIGN_OR_RETURN(TwoPhaseMechanism::Output out,
                        base.Run(x, eps2, rng));
  OSDP_RETURN_IF_ERROR(ValidateBinGroups(out.groups, x.size()));

  // Step 3: zero + group-wise mass reallocation (post-processing). A
  // surviving bin of a group that lost `zeroed` of its `size` bins is scaled
  // by size / (size - zeroed); a group with no zeroed bin keeps its values.
  const std::vector<uint32_t>& label = out.groups.label;
  std::vector<uint32_t> size(out.groups.num_groups, 0);
  std::vector<uint32_t> zeroed(out.groups.num_groups, 0);
  for (size_t i = 0; i < x.size(); ++i) {
    ++size[label[i]];
    if (zero[i]) ++zeroed[label[i]];
  }
  Histogram est = std::move(out.estimate);
  for (size_t i = 0; i < est.size(); ++i) {
    const uint32_t g = label[i];
    if (zero[i]) {
      est[i] = 0.0;
    } else if (zeroed[g] != 0) {
      est[i] *= static_cast<double>(size[g]) /
                static_cast<double>(size[g] - zeroed[g]);
    }
  }
  return est;
}

namespace {

class RecipeMechanism final : public HistogramMechanism {
 public:
  RecipeMechanism(std::unique_ptr<TwoPhaseMechanism> base, RecipeOptions opts)
      : base_(std::move(base)), opts_(opts), name_(base_->name() + "z") {}

  const std::string& name() const override { return name_; }

  PrivacyGuarantee Guarantee(double epsilon) const override {
    PrivacyGuarantee g;
    g.model = PrivacyModel::kOSDP;
    g.epsilon = epsilon;
    g.policy_name = "P";
    g.exclusion_attack_phi = epsilon;
    return g;
  }

  Result<Histogram> Run(const Histogram& x, const Histogram& xns,
                        double epsilon, Rng& rng) const override {
    return ApplyOsdpRecipe(*base_, x, xns, epsilon, opts_, rng);
  }

 private:
  std::unique_ptr<TwoPhaseMechanism> base_;
  RecipeOptions opts_;
  std::string name_;
};

class TwoPhaseDpMechanism final : public HistogramMechanism {
 public:
  explicit TwoPhaseDpMechanism(std::unique_ptr<TwoPhaseMechanism> base)
      : base_(std::move(base)) {}
  const std::string& name() const override { return base_->name(); }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    PrivacyGuarantee g;
    g.model = PrivacyModel::kDP;
    g.epsilon = epsilon;
    g.exclusion_attack_phi = epsilon;
    return g;
  }
  Result<Histogram> Run(const Histogram& x, const Histogram& /*xns*/,
                        double epsilon, Rng& rng) const override {
    OSDP_ASSIGN_OR_RETURN(TwoPhaseMechanism::Output out,
                          base_->Run(x, epsilon, rng));
    return std::move(out.estimate);
  }

 private:
  std::unique_ptr<TwoPhaseMechanism> base_;
};

}  // namespace

std::unique_ptr<HistogramMechanism> MakeRecipeMechanism(
    std::unique_ptr<TwoPhaseMechanism> base, RecipeOptions opts) {
  return std::make_unique<RecipeMechanism>(std::move(base), opts);
}

std::unique_ptr<HistogramMechanism> MakeTwoPhaseDpMechanism(
    std::unique_ptr<TwoPhaseMechanism> base) {
  return std::make_unique<TwoPhaseDpMechanism>(std::move(base));
}

std::vector<std::unique_ptr<HistogramMechanism>> ExtendedSuite() {
  std::vector<std::unique_ptr<HistogramMechanism>> suite = StandardSuite();
  suite.push_back(MakeTwoPhaseDpMechanism(MakeAhpTwoPhase()));
  suite.push_back(MakeTwoPhaseDpMechanism(MakeHierarchicalTwoPhase()));
  suite.push_back(MakeRecipeMechanism(MakeAhpTwoPhase()));
  suite.push_back(MakeRecipeMechanism(MakeHierarchicalTwoPhase()));
  return suite;
}

}  // namespace osdp
