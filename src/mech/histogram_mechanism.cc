#include "src/mech/histogram_mechanism.h"

#include <utility>

#include "src/mech/laplace.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"
#include "src/mech/recipe.h"

namespace osdp {

namespace {

class LaplaceHistogramMechanism final : public HistogramMechanism {
 public:
  const std::string& name() const override {
    static const std::string kName = "Laplace";
    return kName;
  }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    return LaplaceGuarantee(epsilon);
  }
  Result<Histogram> Run(const Histogram& x, const Histogram& /*xns*/,
                        double epsilon, Rng& rng) const override {
    return LaplaceMechanism(x, epsilon, rng);
  }
};

class OsdpRRHistogramMechanism final : public HistogramMechanism {
 public:
  const std::string& name() const override {
    static const std::string kName = "OsdpRR";
    return kName;
  }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    return OsdpRRGuarantee(epsilon, /*policy_name=*/"P");
  }
  Result<Histogram> Run(const Histogram& /*x*/, const Histogram& xns,
                        double epsilon, Rng& rng) const override {
    return OsdpRRHistogram(xns, epsilon, rng);
  }
};

class OsdpLaplaceHistogramMechanism final : public HistogramMechanism {
 public:
  const std::string& name() const override {
    static const std::string kName = "OsdpLaplace";
    return kName;
  }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    return OsdpLaplaceGuarantee(epsilon, /*policy_name=*/"P");
  }
  Result<Histogram> Run(const Histogram& /*x*/, const Histogram& xns,
                        double epsilon, Rng& rng) const override {
    return OsdpLaplace(xns, epsilon, rng);
  }
};

class OsdpLaplaceL1HistogramMechanism final : public HistogramMechanism {
 public:
  const std::string& name() const override {
    static const std::string kName = "OsdpLaplaceL1";
    return kName;
  }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    return OsdpLaplaceGuarantee(epsilon, /*policy_name=*/"P");
  }
  Result<Histogram> Run(const Histogram& /*x*/, const Histogram& xns,
                        double epsilon, Rng& rng) const override {
    return OsdpLaplaceL1(xns, epsilon, rng);
  }
};

class SuppressHistogramMechanism final : public HistogramMechanism {
 public:
  explicit SuppressHistogramMechanism(double tau)
      : tau_(tau), name_("Suppress" + std::to_string(static_cast<int>(tau))) {}
  const std::string& name() const override { return name_; }
  PrivacyGuarantee Guarantee(double /*epsilon*/) const override {
    return SuppressGuarantee(tau_, /*policy_name=*/"Phi_P");
  }
  Result<Histogram> Run(const Histogram& /*x*/, const Histogram& xns,
                        double /*epsilon*/, Rng& rng) const override {
    SuppressOptions opts;
    opts.tau = tau_;
    return Suppress(xns, opts, rng);
  }

 private:
  double tau_;
  std::string name_;
};

class DawaNsHistogramMechanism final : public HistogramMechanism {
 public:
  explicit DawaNsHistogramMechanism(DawaOptions opts) : opts_(opts) {}
  const std::string& name() const override {
    static const std::string kName = "DAWAns";
    return kName;
  }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    PrivacyGuarantee g;
    g.model = PrivacyModel::kOSDP;
    g.epsilon = epsilon;
    g.policy_name = "P";
    g.exclusion_attack_phi = epsilon;
    return g;
  }
  Result<Histogram> Run(const Histogram& /*x*/, const Histogram& xns,
                        double epsilon, Rng& rng) const override {
    OSDP_ASSIGN_OR_RETURN(DawaResult r, Dawa(xns, epsilon, opts_, rng));
    return std::move(r.estimate);
  }

 private:
  DawaOptions opts_;
};

}  // namespace

std::unique_ptr<HistogramMechanism> MakeLaplaceMechanism() {
  return std::make_unique<LaplaceHistogramMechanism>();
}

std::unique_ptr<HistogramMechanism> MakeDawaMechanism(DawaOptions opts) {
  return MakeTwoPhaseDpMechanism(MakeDawaTwoPhase(opts));
}

std::unique_ptr<HistogramMechanism> MakeOsdpRRMechanism() {
  return std::make_unique<OsdpRRHistogramMechanism>();
}

std::unique_ptr<HistogramMechanism> MakeOsdpLaplaceMechanism() {
  return std::make_unique<OsdpLaplaceHistogramMechanism>();
}

std::unique_ptr<HistogramMechanism> MakeOsdpLaplaceL1Mechanism() {
  return std::make_unique<OsdpLaplaceL1HistogramMechanism>();
}

std::unique_ptr<HistogramMechanism> MakeDawazMechanism(DawazOptions opts) {
  return MakeRecipeMechanism(
      MakeDawaTwoPhase(opts.dawa),
      RecipeOptions{opts.zero_budget_ratio, opts.detector});
}

std::unique_ptr<HistogramMechanism> MakeSuppressMechanism(double tau) {
  return std::make_unique<SuppressHistogramMechanism>(tau);
}

std::unique_ptr<HistogramMechanism> MakeDawaNsMechanism(DawaOptions opts) {
  return std::make_unique<DawaNsHistogramMechanism>(opts);
}

std::vector<std::unique_ptr<HistogramMechanism>> StandardSuite() {
  std::vector<std::unique_ptr<HistogramMechanism>> suite;
  suite.push_back(MakeLaplaceMechanism());
  suite.push_back(MakeDawaMechanism());
  suite.push_back(MakeOsdpRRMechanism());
  suite.push_back(MakeOsdpLaplaceMechanism());
  suite.push_back(MakeOsdpLaplaceL1Mechanism());
  suite.push_back(MakeDawazMechanism());
  return suite;
}

}  // namespace osdp
