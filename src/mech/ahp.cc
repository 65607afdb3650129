#include "src/mech/ahp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/accounting/budget.h"
#include "src/common/distributions.h"

namespace osdp {

Result<TwoPhaseMechanism::Output> Ahp(const Histogram& x, double epsilon,
                                      const AhpOptions& opts, Rng& rng) {
  if (!IsValidEpsilon(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (opts.structure_budget_ratio <= 0.0 || opts.structure_budget_ratio >= 1.0) {
    return Status::InvalidArgument("structure_budget_ratio must be in (0,1)");
  }
  const size_t d = x.size();
  if (d == 0) return Status::InvalidArgument("empty histogram");
  const double eps1 = opts.structure_budget_ratio * epsilon;
  const double eps2 = epsilon - eps1;

  // ---- Phase 1: noisy copy, threshold, value-sorted clustering. ----
  const double scale1 = 2.0 / eps1;
  std::vector<double> noisy(d);
  for (size_t i = 0; i < d; ++i) noisy[i] = x[i] + SampleLaplace(rng, scale1);
  const double threshold =
      scale1 * std::sqrt(2.0 * std::log(std::max<double>(2.0, d)));
  for (double& v : noisy) {
    if (v < threshold) v = 0.0;
  }

  std::vector<uint32_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return noisy[a] < noisy[b];
  });

  // Clusters are runs of the value-sorted `order`, grown while their spread
  // stays under spread_cap.
  // ---- Phase 2: noisy cluster totals, uniform within cluster. ----
  // A cluster's total is drawn as soon as the cluster closes, so the noise
  // draws come in cluster order.
  const double spread_cap = 2.0 * (2.0 / eps2);
  const double scale2 = 2.0 / eps2;
  Histogram estimate(d);
  BinGroups groups;
  groups.label.resize(d);
  size_t i = 0;
  while (i < d) {
    const double base = noisy[order[i]];
    size_t j = i + 1;
    while (j < d && noisy[order[j]] - base <= spread_cap) ++j;
    double total = 0.0;
    for (size_t k = i; k < j; ++k) total += x[order[k]];
    double noisy_total = total + SampleLaplace(rng, scale2);
    if (opts.clamp_non_negative) noisy_total = std::max(noisy_total, 0.0);
    const double per_bin = noisy_total / static_cast<double>(j - i);
    for (size_t k = i; k < j; ++k) {
      estimate[order[k]] = per_bin;
      groups.label[order[k]] = groups.num_groups;
    }
    ++groups.num_groups;
    i = j;
  }
  return TwoPhaseMechanism::Output{std::move(estimate), std::move(groups)};
}

namespace {

class AhpTwoPhase final : public TwoPhaseMechanism {
 public:
  explicit AhpTwoPhase(AhpOptions opts) : opts_(opts) {}
  const std::string& name() const override {
    static const std::string kName = "AHP";
    return kName;
  }
  Result<Output> Run(const Histogram& x, double epsilon,
                     Rng& rng) const override {
    return Ahp(x, epsilon, opts_, rng);
  }

 private:
  AhpOptions opts_;
};

}  // namespace

std::unique_ptr<TwoPhaseMechanism> MakeAhpTwoPhase(AhpOptions opts) {
  return std::make_unique<AhpTwoPhase>(opts);
}

}  // namespace osdp
